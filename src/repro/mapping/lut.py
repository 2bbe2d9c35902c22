"""Area-oriented K-LUT technology mapping.

The Table I experiment maps optimized AIGs "onto LUT-6 [with] the ABC command
``if -K 6 -a``" — an area-oriented structural mapper.  This module implements
the standard recipe behind that command:

1. enumerate priority K-feasible cuts per node,
2. forward pass selecting each node's best cut by *area flow* (estimated
   shared area) with depth as tie-breaker,
3. backward cover extraction from the POs,
4. a few *exact-area* recovery passes re-selecting cuts against the real
   reference counts of the current cover.

The result reports LUT count (the paper's "LUT-6 count" column) and mapped
depth ("level count").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.aig.aig import Aig, lit_node
from repro.aig.cuts import Cut, enumerate_cuts


@dataclass
class LutMapping:
    """A LUT cover of an AIG.

    Attributes
    ----------
    luts:
        Mapping from LUT root node to its leaf tuple.
    area:
        Number of LUTs.
    depth:
        Maximum number of LUTs on any PI→PO path (the "level count").
    """

    luts: Dict[int, Tuple[int, ...]]
    area: int
    depth: int

    def lut_count(self) -> int:
        """LUT count (paper's area metric for the EPFL contest)."""
        return self.area


def map_luts(aig: Aig, k: int = 6, cut_limit: int = 8,
             area_passes: int = 2) -> LutMapping:
    """Area-oriented K-LUT mapping of *aig*."""
    cuts = enumerate_cuts(aig, k=k, cut_limit=cut_limit, compute_tables=False)
    order = aig.topological_order()
    refs = _structural_refs(aig)
    best_cut: Dict[int, Cut] = {}
    area_flow: Dict[int, float] = {0: 0.0}
    depth: Dict[int, int] = {0: 0}
    for p in aig.pis():
        area_flow[p] = 0.0
        depth[p] = 0

    def select(node: int, ref_of) -> None:
        best = None
        best_key = None
        for cut in cuts[node]:
            if len(cut.leaves) == 1 and cut.leaves[0] == node:
                continue  # trivial cut cannot implement the node
            flow = 1.0
            cut_depth = 0
            for leaf in cut.leaves:
                flow += area_flow[leaf] / max(1.0, ref_of(leaf))
                cut_depth = max(cut_depth, depth[leaf])
            key = (flow, cut_depth, len(cut.leaves))
            if best_key is None or key < best_key:
                best_key = key
                best = cut
        best_cut[node] = best
        area_flow[node] = best_key[0]
        depth[node] = best_key[1] + 1

    for node in order:
        select(node, lambda leaf: refs.get(leaf, 1))

    cover = _extract_cover(aig, best_cut)
    for _pass in range(area_passes):
        cover_refs = _cover_refs(aig, cover)
        area_flow = {0: 0.0}
        depth = {0: 0}
        for p in aig.pis():
            area_flow[p] = 0.0
            depth[p] = 0
        for node in order:
            select(node, lambda leaf, cover_refs=cover_refs:
                   cover_refs.get(leaf, refs.get(leaf, 1)))
        cover = _extract_cover(aig, best_cut)

    mapped_depth = _cover_depth(aig, cover)
    return LutMapping(luts=cover, area=len(cover), depth=mapped_depth)


def _structural_refs(aig: Aig) -> Dict[int, int]:
    refs: Dict[int, int] = {}
    for n in aig.topological_order():
        for f in aig.fanins(n):
            refs[lit_node(f)] = refs.get(lit_node(f), 0) + 1
    for po in aig.pos():
        refs[lit_node(po)] = refs.get(lit_node(po), 0) + 1
    return refs


def _extract_cover(aig: Aig, best_cut: Dict[int, Cut]) -> Dict[int, Tuple[int, ...]]:
    cover: Dict[int, Tuple[int, ...]] = {}
    visited: Set[int] = set()
    stack = [lit_node(po) for po in aig.pos()]
    while stack:
        node = stack.pop()
        if node in visited or not aig.is_and(node):
            continue
        visited.add(node)
        cut = best_cut[node]
        cover[node] = cut.leaves
        stack.extend(cut.leaves)
    return cover


def _cover_refs(aig: Aig, cover: Dict[int, Tuple[int, ...]]) -> Dict[int, int]:
    refs: Dict[int, int] = {}
    for leaves in cover.values():
        for leaf in leaves:
            refs[leaf] = refs.get(leaf, 0) + 1
    for po in aig.pos():
        refs[lit_node(po)] = refs.get(lit_node(po), 0) + 1
    return refs


def _cover_depth(aig: Aig, cover: Dict[int, Tuple[int, ...]]) -> int:
    depth: Dict[int, int] = {0: 0}
    for p in aig.pis():
        depth[p] = 0
    order = aig.topological_order()
    for node in order:
        if node in cover:
            depth[node] = 1 + max((depth.get(leaf, 0)
                                   for leaf in cover[node]), default=0)
    return max((depth.get(lit_node(po), 0) for po in aig.pos()), default=0)
