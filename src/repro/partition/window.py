"""Node-centric reconvergent windows for resubstitution.

While :mod:`repro.partition.partitioner` slices the whole network, the
resubstitution moves need a *window around one pivot node*: a small cut of
leaves below it, the cone in between, and a set of candidate divisor nodes
whose functions are expressible over the same leaves but which do not depend
on the pivot (so substituting them cannot create cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.aig.aig import Aig, lit_node
from repro.aig.traversal import node_level_map


@dataclass
class NodeWindow:
    """A pivot-centred window.

    Attributes
    ----------
    pivot:
        The node being resynthesized.
    leaves:
        Cut nodes treated as window inputs (ordered).
    cone:
        Nodes between the leaves and the pivot, topological, pivot last.
    divisors:
        Candidate replacement nodes: inside the window's input space but
        outside the pivot's fanout cone (pivot excluded).
    """

    pivot: int
    leaves: List[int]
    cone: List[int]
    divisors: List[int]


def collect_window(aig: Aig, pivot: int, max_leaves: int = 8,
                   max_divisors: int = 150,
                   levels: Optional[Dict[int, int]] = None) -> Optional[NodeWindow]:
    """Build a reconvergence-driven window around *pivot*.

    The cone's inner nodes are always divisors.  While there is room for
    more, fanouts of the window whose two fanins are both inside join
    too, unless the pivot is one of those fanins.  That one test keeps
    every divisor out of the pivot's transitive fanout without walking
    it: of the inside nodes only the pivot is in its own fanout cone
    (the leaves and the cone are below it, and a divisor joins only
    from outside the fanout cone).  So the window costs one
    ``fanout_nodes`` call per inside node at most.

    Returns None when the pivot has no suitable cut (e.g. it is a PI).
    """
    if not aig.is_and(pivot):
        return None
    levels = levels if levels is not None else node_level_map(aig)
    leaves = _reconvergent_cut(aig, pivot, max_leaves, levels)
    leaf_set = set(leaves)
    # Cone between leaves and pivot.
    cone: List[int] = []
    seen: Set[int] = set(leaf_set)
    stack = [pivot]
    post: List[int] = []
    visiting: Set[int] = set()
    while stack:
        n = stack[-1]
        if n in seen:
            stack.pop()
            continue
        if n in visiting:
            seen.add(n)
            post.append(n)
            stack.pop()
            continue
        visiting.add(n)
        for f in aig.fanins(n):
            fn = lit_node(f)
            if fn not in seen and aig.is_and(fn):
                stack.append(fn)
    cone = post
    divisors: List[int] = [n for n in cone if n != pivot]
    if len(divisors) >= max_divisors:
        return NodeWindow(pivot=pivot, leaves=leaves, cone=cone,
                          divisors=divisors)
    # Divisors: grow from leaves/cone through fanouts that stay inside the
    # leaf-supported space and avoid the pivot's transitive fanout.
    inside: Set[int] = leaf_set | set(cone)
    frontier = list(inside)
    pivot_level = levels.get(pivot, 0)
    while frontier and len(divisors) < max_divisors:
        node = frontier.pop()
        for t in aig.fanout_nodes(node):
            if t in inside or not aig.is_and(t):
                continue
            f0, f1 = (lit_node(f) for f in aig.fanins(t))
            if (f0 in inside and f1 in inside and pivot not in (f0, f1)
                    and levels.get(t, pivot_level + 3) <= pivot_level + 2):
                inside.add(t)
                divisors.append(t)
                frontier.append(t)
                if len(divisors) >= max_divisors:
                    break
    return NodeWindow(pivot=pivot, leaves=leaves, cone=cone, divisors=divisors)


def _reconvergent_cut(aig: Aig, pivot: int, max_leaves: int,
                      levels: Dict[int, int]) -> List[int]:
    """Grow a cut below *pivot* by repeatedly expanding the deepest leaf.

    Each leaf's fanin set is read once per call (None for a leaf that is
    not an AND), however many expansion steps look at it.
    """
    cut: Set[int] = {lit_node(f) for f in aig.fanins(pivot)}
    fanin_sets: Dict[int, Optional[Set[int]]] = {}
    for _iteration in range(60):
        # Prefer expanding AND leaves whose expansion keeps the cut small
        # (cost = extra leaves introduced; reconvergence gives cost <= 0).
        best = None
        best_cost = 10 ** 9
        for leaf in cut:
            if leaf not in fanin_sets:
                fanin_sets[leaf] = ({lit_node(f) for f in aig.fanins(leaf)}
                                    if aig.is_and(leaf) else None)
            fanin_nodes = fanin_sets[leaf]
            if fanin_nodes is None:
                continue
            cost = len(fanin_nodes - cut) - 1
            if cost < best_cost or (cost == best_cost and best is not None
                                    and levels.get(leaf, 0) > levels.get(best, 0)):
                best = leaf
                best_cost = cost
        if best is None:
            break
        if len(cut) + best_cost > max_leaves:
            break
        cut.discard(best)
        cut |= fanin_sets[best]
        if len(cut) > max_leaves:  # safety net
            break
    return sorted(cut)
