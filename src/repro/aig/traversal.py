"""Traversal utilities over AIGs: cones, supports, orderings.

These helpers back the partitioning engine (Section III-B sorts nodes "according
to the similarity of their structural support") and the candidate filters of the
Boolean-difference engine (shared support, inclusion of one cone in another).
:func:`checksum` is the structural fingerprint behind the committed flow
checksums of the benchmark scripts and tests.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Set

from repro.aig.aig import Aig, lit_node


def topological_order_all(aig: Aig,
                          roots: Optional[Iterable[int]] = None) -> List[int]:
    """All live AND nodes in topological order, including dangling cones.

    :meth:`Aig.topological_order` only covers logic reachable from the POs;
    this variant also schedules live nodes no PO depends on, which matters for
    mid-edit inspection.  Given *roots* (live ANDs), it orders only their
    fan-in cones.
    """
    order: List[int] = []
    visited = bytearray(aig.max_node + 1)
    for root in aig.ands() if roots is None else roots:
        if visited[root]:
            continue
        stack = [root]
        while stack:
            n = stack[-1]
            if visited[n] == 2:
                stack.pop()
                continue
            if visited[n] == 0:
                visited[n] = 1
                for f in aig.fanins(n):
                    fn = lit_node(f)
                    if aig.is_and(fn) and visited[fn] == 0:
                        stack.append(fn)
            else:
                visited[n] = 2
                order.append(n)
                stack.pop()
    return order


def transitive_fanin(aig: Aig, roots: Iterable[int], include_pis: bool = True) -> Set[int]:
    """Set of nodes in the transitive fanin cone of *roots* (roots included)."""
    seen: Set[int] = set()
    stack = [r for r in roots]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if aig.is_and(n):
            stack.extend(lit_node(f) for f in aig.fanins(n))
    if not include_pis:
        seen = {n for n in seen if aig.is_and(n)}
    return seen


def transitive_fanout(aig: Aig, roots: Iterable[int]) -> Set[int]:
    """Set of AND nodes in the transitive fanout cone of *roots* (roots included)."""
    seen: Set[int] = set(roots)
    stack = list(seen)
    while stack:
        n = stack.pop()
        for t in aig.fanout_nodes(n):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def structural_support(aig: Aig, node: int) -> Set[int]:
    """Primary-input nodes in the transitive fanin of *node*."""
    return {n for n in transitive_fanin(aig, [node]) if aig.is_pi(n)}


def all_supports(aig: Aig) -> Dict[int, frozenset]:
    """Structural support of every live node, computed in one topological pass.

    Used by the partitioner to group nodes with similar supports.  Supports are
    returned as frozensets of PI node ids.
    """
    supports: Dict[int, frozenset] = {0: frozenset()}
    for p in aig.pis():
        supports[p] = frozenset((p,))
    for n in topological_order_all(aig):
        f0, f1 = aig.fanins(n)
        s0 = supports[lit_node(f0)]
        s1 = supports[lit_node(f1)]
        supports[n] = s0 if s1 <= s0 else (s1 if s0 <= s1 else s0 | s1)
    return supports


def support_similarity(a: frozenset, b: frozenset) -> float:
    """Jaccard similarity of two structural supports (1.0 = identical)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def cone_inclusion(aig: Aig, f: int, g: int) -> float:
    """Fraction of *f*'s AND cone that also lies in *g*'s AND cone.

    The Boolean-difference candidate filter "neglects cases where f is
    completely included in g, or partially included up to a certain
    threshold" (Section III-B); this measures that inclusion.
    """
    cone_f = transitive_fanin(aig, [f], include_pis=False)
    if not cone_f:
        return 0.0
    cone_g = transitive_fanin(aig, [g], include_pis=False)
    return len(cone_f & cone_g) / len(cone_f)


def node_level_map(aig: Aig) -> Dict[int, int]:
    """Level of every live node (dangling cones included)."""
    level: Dict[int, int] = {0: 0}
    for p in aig.pis():
        level[p] = 0
    for n in topological_order_all(aig):
        f0, f1 = aig.fanins(n)
        level[n] = 1 + max(level[lit_node(f0)], level[lit_node(f1)])
    return level


def checksum(aig: Aig) -> str:
    """Structural sha256 over the remapped topological order (16 hex)."""
    h = hashlib.sha256()
    h.update(f"{aig.num_pis}/{aig.num_pos}/".encode())
    order = aig.topological_order()
    remap = {0: 0}
    for i, p in enumerate(aig.pis()):
        remap[p] = i + 1
    for n in order:
        remap[n] = len(remap)
    for n in order:
        f0, f1 = aig.fanins(n)
        h.update(f"{remap[f0 >> 1]}.{f0 & 1},"
                 f"{remap[f1 >> 1]}.{f1 & 1};".encode())
    for po in aig.pos():
        h.update(f"o{remap[po >> 1]}.{po & 1};".encode())
    return h.hexdigest()[:16]
