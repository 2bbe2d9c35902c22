"""K-feasible cut enumeration over AIGs.

Cuts are the windows on which local Boolean methods operate: the rewriting
move of the gradient engine evaluates replacement structures per cut, and the
LUT-6 mapper of the Table I experiment covers the network with 6-feasible
cuts.  A *cut* of node ``n`` is a set of nodes (leaves) such that every path
from a PI to ``n`` passes through a leaf; it is K-feasible when it has at most
K leaves.

The enumerator is the classic bottom-up cross-product with per-node priority
lists, keeping at most ``cut_limit`` cuts per node ranked by size — the same
pruning used by ABC's mappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.aig.aig import Aig, lit_is_compl, lit_node
from repro.aig.traversal import topological_order_all
from repro.tt.truthtable import swap_adjacent

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - older interpreters
    def _popcount(value: int) -> int:
        return bin(value).count("1")


@dataclass(frozen=True)
class Cut:
    """An immutable cut: sorted leaf tuple plus the truth table over leaves.

    The truth table (when computed) is an integer over ``2**len(leaves)``
    bits, with leaf 0 the least significant variable.

    Each cut carries a precomputed *leaf-bitmask signature* — the OR of
    ``1 << leaf`` over its leaves.  Because every leaf maps to exactly one
    bit, ``sig_a & sig_b == sig_a`` is not a filter but the *exact* subset
    test, so :meth:`dominates` (the hottest comparison of cut enumeration)
    never builds a set.
    """

    leaves: Tuple[int, ...]
    table: Optional[int] = field(default=None, compare=False)
    sig: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.sig == 0 and self.leaves:
            mask = 0
            for leaf in self.leaves:
                mask |= 1 << leaf
            object.__setattr__(self, "sig", mask)

    def __len__(self) -> int:
        return len(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True when this cut's leaves are a subset of *other*'s."""
        return self.sig & other.sig == self.sig


def enumerate_cuts(aig: Aig, k: int = 4, cut_limit: int = 8,
                   compute_tables: bool = False,
                   roots: Optional[Iterable[int]] = None
                   ) -> Dict[int, List[Cut]]:
    """Enumerate up to *cut_limit* K-feasible cuts for every live node.

    Every node always keeps its trivial cut ``{n}`` (required for mapping).
    With ``compute_tables=True`` each cut carries its local truth table,
    enabling NPN-class lookups during rewriting.  A node's cut list is a
    function of its fan-in cone alone, so given *roots* (live ANDs) only
    the ANDs of their fan-in cones are enumerated, each with the list the
    whole-network enumeration gives it.

    Returns a dict from node id to its cut list; PIs and the constant node
    have only their trivial cut.
    """
    cuts: Dict[int, List[Cut]] = {0: [Cut((0,), 0 if compute_tables else None)]}
    for p in aig.pis():
        cuts[p] = [Cut((p,), 0b10 if compute_tables else None)]
    for n in topological_order_all(aig, roots):
        f0, f1 = aig.fanins(n)
        n0, n1 = lit_node(f0), lit_node(f1)
        c0, c1 = lit_is_compl(f0), lit_is_compl(f1)
        merged: List[Cut] = []
        for cut_a in cuts[n0]:
            sig_a = cut_a.sig
            for cut_b in cuts[n1]:
                # Signature union rejects oversized merges before any
                # tuple/set is built; each leaf is one bit, so the
                # popcount is the exact merged leaf count.
                sig = sig_a | cut_b.sig
                if _popcount(sig) > k:
                    continue
                if sig == sig_a:
                    leaves = cut_a.leaves
                elif sig == cut_b.sig:
                    leaves = cut_b.leaves
                else:
                    leaves = tuple(sorted(set(cut_a.leaves) | set(cut_b.leaves)))
                table = None
                if compute_tables:
                    table = _merge_tables(cut_a, cut_b, leaves, c0, c1)
                merged.append(Cut(leaves, table, sig))
        merged = _filter_cuts(merged, cut_limit)
        trivial_table = 0b10 if compute_tables else None
        merged.append(Cut((n,), trivial_table))
        cuts[n] = merged
    return cuts


def _filter_cuts(cands: List[Cut], limit: int) -> List[Cut]:
    """Remove duplicate and dominated cuts, keep the *limit* smallest."""
    cands.sort(key=lambda c: (len(c.leaves), c.leaves))
    kept: List[Cut] = []
    seen = set()
    for cut in cands:
        if cut.leaves in seen:
            continue
        if any(prev.dominates(cut) for prev in kept):
            continue
        seen.add(cut.leaves)
        kept.append(cut)
        if len(kept) >= limit:
            break
    return kept


def _merge_tables(cut_a: Cut, cut_b: Cut, leaves: Tuple[int, ...],
                  compl_a: bool, compl_b: bool) -> int:
    """Truth table of the AND of two fanin cuts over the merged leaf set."""
    nvars = len(leaves)
    nbits = 1 << nvars
    mask = (1 << nbits) - 1
    ta = _expand_table(cut_a.table, cut_a.leaves, leaves, nbits)
    tb = _expand_table(cut_b.table, cut_b.leaves, leaves, nbits)
    if compl_a:
        ta ^= mask
    if compl_b:
        tb ^= mask
    return ta & tb


def _expand_table(table: int, from_leaves: Tuple[int, ...],
                  to_leaves: Tuple[int, ...], nbits: int) -> int:
    """Re-express *table* (over *from_leaves*) over the superset *to_leaves*.

    Both leaf tuples are sorted, as every cut's are.  The table is first
    repeated up to *nbits* rows, so it spans all of *to_leaves* without
    depending on the new top variables; then each of its variables,
    topmost first, moves up to its position by adjacent-variable swaps.
    """
    if from_leaves == to_leaves:
        return table
    num_vars = len(to_leaves)
    width = 1 << len(from_leaves)
    while width < nbits:
        table |= table << width
        width <<= 1
    for var in range(len(from_leaves) - 1, -1, -1):
        for k in range(var, to_leaves.index(from_leaves[var])):
            table = swap_adjacent(table, k, num_vars)
    return table


def cut_cone_size(aig: Aig, node: int, cut: Cut) -> int:
    """Number of AND nodes strictly inside *cut* rooted at *node*."""
    leaves = set(cut.leaves)
    if node in leaves:
        return 0
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in seen or n in leaves or not aig.is_and(n):
            continue
        seen.add(n)
        stack.extend(lit_node(f) for f in aig.fanins(n))
    return len(seen)


def cut_volume_refs(aig: Aig, node: int, cut: Cut) -> int:
    """Nodes of the cut cone whose only fanouts stay inside the cone.

    This approximates the gain of replacing the cone: nodes referenced from
    outside survive the rewrite, the rest are reclaimed (MFFC-style counting
    restricted to the cut cone).
    """
    leaves = set(cut.leaves)
    cone = []
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in seen or n in leaves or not aig.is_and(n):
            continue
        seen.add(n)
        cone.append(n)
        stack.extend(lit_node(f) for f in aig.fanins(n))
    reclaim = 0
    for n in cone:
        if n == node:
            reclaim += 1
            continue
        if all(t in seen for t in aig.fanout_nodes(n)) and aig.ref_count(n) == len(aig.fanout_nodes(n)):
            reclaim += 1
    return reclaim
