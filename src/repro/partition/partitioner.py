"""Partitioning engine (Section III-B).

"The partitions are created by collecting all the nodes in topological order
and by sorting them according to the similarity of their structural support.
Each partition respects some predefined characteristic, e.g., maximum number
of primary inputs, maximum number of internal nodes, maximum number of
levels ... we give priority to the limit on the maximum number of levels."

The implementation orders nodes level-by-level (a valid topological order)
with nodes of equal level sorted by a support signature, then greedily slices
this order into windows bounded by level span, node count, and leaf count.
Because every window is a contiguous slice of a topological order, its leaves
always precede its nodes — replacing a window root with logic over the leaves
can never create a combinational cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.aig.aig import Aig, lit_is_compl, lit_node, lit_notcond
from repro.aig.traversal import all_supports, node_level_map


@dataclass
class Window:
    """A partition of the AIG: internal nodes plus their boundary.

    Attributes
    ----------
    nodes:
        Internal AND nodes, in topological order.
    leaves:
        Boundary inputs (PIs or external ANDs feeding the window), ordered.
    roots:
        Window nodes referenced from outside (fanout outside or PO use).
    """

    nodes: List[int]
    leaves: List[int]
    roots: List[int]
    level_span: Tuple[int, int] = (0, 0)

    @property
    def size(self) -> int:
        """Number of internal nodes."""
        return len(self.nodes)

    @property
    def num_leaves(self) -> int:
        """Number of boundary inputs."""
        return len(self.leaves)


@dataclass
class PartitionConfig:
    """Limits for the partitioner, mirroring the paper's knobs.

    "Experimentally, we found promising bounds on the number of levels
    ranging from 5 to 30, resulting in partitions with controlled maximum
    size of 1000 nodes."
    """

    max_levels: int = 20
    max_size: int = 1000
    max_leaves: int = 64


def partition_network(aig: Aig, config: Optional[PartitionConfig] = None) -> List[Window]:
    """Split the network into topological windows per *config*.

    Every live AND node reachable from a PO lands in exactly one window.
    """
    config = config or PartitionConfig()
    order = aig.topological_order()
    if not order:
        return []
    levels = node_level_map(aig)
    supports = all_supports(aig)

    def signature(node: int) -> Tuple:
        return tuple(sorted(supports[node]))[:8]

    # Level-major order with support-similar nodes adjacent within a level.
    order.sort(key=lambda n: (levels[n], signature(n)))

    windows: List[Window] = []
    current: List[int] = []
    current_leaves: Set[int] = set()
    base_level = None
    members: Set[int] = set()

    def flush() -> None:
        nonlocal current, current_leaves, base_level, members
        if current:
            windows.append(_build_window(aig, current))
        current = []
        current_leaves = set()
        base_level = None
        members = set()

    for node in order:
        node_level = levels[node]
        fanin_nodes = {lit_node(f) for f in aig.fanins(node)}
        new_leaves = {f for f in fanin_nodes if f not in members} - current_leaves
        if current:
            over_levels = node_level - base_level >= config.max_levels
            over_size = len(current) + 1 > config.max_size
            over_leaves = len(current_leaves) + len(new_leaves) > config.max_leaves
            if over_levels or over_size or over_leaves:
                flush()
                new_leaves = fanin_nodes
        if base_level is None:
            base_level = node_level
        current.append(node)
        members.add(node)
        current_leaves |= new_leaves
    flush()
    return windows


def _build_window(aig: Aig, nodes: List[int]) -> Window:
    members = set(nodes)
    leaves: List[int] = []
    seen_leaves: Set[int] = set()
    for n in nodes:
        for f in aig.fanins(n):
            fn = lit_node(f)
            if fn not in members and fn not in seen_leaves and fn != 0:
                seen_leaves.add(fn)
                leaves.append(fn)
    po_nodes = {lit_node(po) for po in aig.pos()}
    roots = []
    for n in nodes:
        external = n in po_nodes or any(t not in members
                                        for t in aig.fanout_nodes(n))
        # Nodes whose reference count exceeds their internal fanouts are
        # also externally referenced (e.g. used by several POs).
        if not external:
            internal_refs = sum(1 for t in aig.fanout_nodes(n) if t in members)
            external = aig.ref_count(n) > internal_refs
        if external:
            roots.append(n)
    levels = node_level_map(aig)
    span = (min(levels[n] for n in nodes), max(levels[n] for n in nodes))
    return Window(nodes=nodes, leaves=leaves, roots=roots, level_span=span)


def refresh_window(aig: Aig, window: Window) -> Optional[Window]:
    """Recompute a window's boundary against the network's current state.

    Engines that keep window snapshots across edits (the gradient engine's
    sweeps) must refresh before extracting: members may have died, and
    surviving members may have been rewired to fanins outside the original
    boundary.  Returns None when no live member remains.
    """
    alive = [n for n in window.nodes if aig.is_and(n)]
    if not alive:
        return None
    # Keep topological order among the survivors.
    position = {n: i for i, n in enumerate(aig.topological_order())}
    alive.sort(key=lambda n: position.get(n, 1 << 60))
    return _build_window(aig, alive)


def extract_window_aig(aig: Aig, window: Window) -> Tuple[Aig, Dict[int, int], Dict[int, int]]:
    """Materialize a window as a standalone AIG.

    Leaves become PIs (in window leaf order) and roots become POs.  Returns
    ``(sub_aig, node_to_sub_literal, root_to_po_index)`` so optimized logic
    can be spliced back via :func:`splice_window`.
    """
    sub = Aig(f"{aig.name}.win")
    mapping: Dict[int, int] = {0: 0}
    for leaf in window.leaves:
        mapping[leaf] = sub.add_pi(f"n{leaf}")
    for n in window.nodes:
        f0, f1 = aig.fanins(n)
        a = lit_notcond(mapping[lit_node(f0)], lit_is_compl(f0))
        b = lit_notcond(mapping[lit_node(f1)], lit_is_compl(f1))
        mapping[n] = sub.add_and(a, b)
    root_to_po = {}
    for i, r in enumerate(window.roots):
        sub.add_po(mapping[r], f"r{r}")
        root_to_po[r] = i
    return sub, mapping, root_to_po


def splice_window(aig: Aig, window: Window, optimized: Aig) -> int:
    """Replace the window's roots with the optimized sub-network's POs.

    *optimized* must have the window's leaves as its PIs (same order) and one
    PO per window root (same order).  Returns the size delta (negative =
    improvement).  The caller is responsible for only splicing functionally
    equivalent logic.
    """
    before = aig.num_ands
    mapping: Dict[int, int] = {0: 0}
    for leaf, pi_node in zip(window.leaves, optimized.pis()):
        mapping[pi_node] = 2 * leaf
    for n in optimized.topological_order():
        f0, f1 = optimized.fanins(n)
        a = lit_notcond(mapping[lit_node(f0)], lit_is_compl(f0))
        b = lit_notcond(mapping[lit_node(f1)], lit_is_compl(f1))
        mapping[n] = aig.add_and(a, b)
    new_literals = []
    for _root, po in zip(window.roots, optimized.pos()):
        new_lit = lit_notcond(mapping[lit_node(po)], lit_is_compl(po))
        new_literals.append(new_lit)
        # Protect pending logic so an earlier root replacement cannot
        # garbage-collect it before it is spliced in.
        aig.protect(new_lit)
    for root, new_lit in zip(window.roots, new_literals):
        if aig.is_dead(root) or lit_node(new_lit) == root:
            continue
        # Structural hashing may have mapped part of the new logic onto the
        # root itself; replacing would then create a cycle — skip that root.
        if aig.depends_on(lit_node(new_lit), root):
            continue
        aig.replace(root, new_lit)
    for new_lit in new_literals:
        aig.unprotect(new_lit)
    return aig.num_ands - before
