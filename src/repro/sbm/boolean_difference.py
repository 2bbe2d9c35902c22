"""Boolean-difference based resubstitution (Section III, Algorithms 1 and 2).

The engine rewrites a node ``f`` as ``f = ∂f/∂g ⊕ g`` where ``g`` is another
node of the same partition and ``∂f/∂g = f ⊕ g`` is the Boolean difference.
When the difference has a compact implementation — it often does for
reconvergent pairs sharing most of their logic — the rewrite reclaims ``f``'s
MFFC at the cost of the difference network plus one XOR.

The flow follows the paper closely:

* partitions come from the topological/support-similarity partitioner
  (Section III-B, :mod:`repro.partition`),
* BDDs for all partition nodes are precomputed into a hash table
  (Alg. 2 line 3) over the partition's leaves,
* per pair, the difference BDD is one XOR (Alg. 1 line 4), filtered by BDD
  size (≤10 by default) and by the saving estimate against ``xor_cost``,
* the accepted difference is strashed into the AIG (Alg. 1 line 15) with
  existing nodes reused via the BDD↔node hash table,
* memory-limit bailouts mark nodes as BDD-size-0 and skip them
  (Section III-C), and
* a new implementation of ``f`` is accepted when it reduces size or keeps it
  equal ("this second case could reshape the network ... and help escaping
  local minima", Section III-D).

The pass runs :func:`optimize_subaig` on every partition window through
the :class:`~repro.parallel.scheduler.PartitionScheduler`; the fields of
:class:`BooleanDifferenceStats` are the engine's one list of counters,
which the window payload, the pass's fold and the ``bdiff.*`` metrics all
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro import obs
from repro.aig.aig import Aig, lit, lit_node
from repro.bdd import pool as bdd_pool
from repro.bdd.manager import BddManager
from repro.bdd.to_aig import aig_window_to_bdds, bdd_to_aig
from repro.errors import BddLimitError
from repro.opt.shared import try_replace
from repro.parallel.scheduler import PartitionScheduler
from repro.parallel.stats import (applied_counters, window_counters,
                                  worker_counters)
from repro.parallel.window_io import whole_network_window
from repro.partition.partitioner import Window
from repro.sbm.config import BooleanDifferenceConfig


@dataclass
class BooleanDifferenceStats:
    """Counters reported by a Boolean-difference pass."""

    partitions: int = 0
    pairs_tried: int = 0
    pairs_filtered_support: int = 0
    pairs_filtered_inclusion: int = 0
    pairs_filtered_bdd_size: int = 0
    pairs_filtered_saving: int = 0
    bdd_bailouts: int = 0
    rewrites: int = 0
    gain: int = 0
    #: total BDD nodes allocated across partition managers (memory proxy)
    bdd_nodes_allocated: int = 0


def boolean_difference_pass(aig: Aig,
                            config: Optional[BooleanDifferenceConfig] = None,
                            scheduler: Optional[PartitionScheduler] = None
                            ) -> BooleanDifferenceStats:
    """Run Alg. 2 over every partition of the network; edits in place.

    Partitions are snapshot up front and optimized independently by
    *scheduler* — inline and in partition order without one (the serial
    path), or on its pool, with its window timeout and fault plan — then
    spliced back in deterministic partition order, so the result is the
    same for every scheduler.
    """
    config = config or BooleanDifferenceConfig()
    stats = (scheduler or PartitionScheduler()).run_pass(
        aig, "bdiff", optimize_subaig, config,
        config.partition).fold(BooleanDifferenceStats())
    obs.publish_counters("bdiff", applied_counters(stats))
    return stats


def optimize_subaig(sub: Aig,
                    config: Optional[BooleanDifferenceConfig] = None):
    """Worker entry point: Boolean-difference resub on one sub-AIG.

    Pure function of *sub* (the extracted window, leaves as PIs): returns
    ``(changed, optimized sub-AIG or None, payload)`` for the scheduler.
    """
    config = config or BooleanDifferenceConfig()
    stats = BooleanDifferenceStats()
    if sub.num_pis and sub.num_ands:
        optimize_partition(sub, whole_network_window(sub), config, stats)
    payload = window_counters(stats)
    # Bailouts and the size-limit filter are reported even at zero — the
    # absence of bailouts is itself what the report exists to show.  The
    # pass publishes the applied ``rewrites`` and ``gain``.
    obs.publish_counters("bdiff", worker_counters(payload), always=(
        "bdd_bailouts", "pairs_filtered_bdd_size"))
    changed = stats.rewrites > 0
    return changed, (sub.cleanup() if changed else None), payload


def optimize_partition(aig: Aig, window: Window,
                       config: BooleanDifferenceConfig,
                       stats: BooleanDifferenceStats) -> None:
    """Apply the Boolean-difference resubstitution inside one partition."""
    leaves = window.leaves
    if not leaves:
        return
    # Hot path: recycle a pooled manager's container capacity instead of
    # constructing from scratch; reset_for_reuse replays fresh-manager
    # state exactly, so node ids and bailout points are bit-identical.
    manager = bdd_pool.acquire(len(leaves), node_limit=config.bdd_node_limit)
    try:
        try:
            leaf_bdds = {leaf: manager.var(i) for i, leaf in enumerate(leaves)}
            leaf_literals = [2 * leaf for leaf in leaves]
            # Alg. 2 line 3: precompute and store all BDDs in the hash table.
            all_bdds = aig_window_to_bdds(aig, window.nodes, leaf_bdds, manager)
        except BddLimitError:
            # Even the variable nodes blow the budget: skip the partition, as
            # the paper's bailout does.
            stats.bdd_bailouts += 1
            return
        if config.reorder:
            # Extension the paper declines (Section III-C): sift the partition
            # BDDs to cut memory, paying reordering runtime.
            reordered = _reorder_partition(manager, all_bdds, leaf_literals)
            if reordered is None:
                stats.bdd_bailouts += 1
                return
            new_manager, all_bdds, leaf_literals = reordered
            if new_manager is not manager:
                bdd_pool.release(manager)
                manager = new_manager
        # Reverse table: BDD node -> existing AIG literal (first writer wins,
        # leaves preferred).  Implements Alg. 1 lines 5-7 and the sharing credit.
        bdd_to_lit: Dict[int, int] = {}
        for leaf in leaves:
            bdd_to_lit.setdefault(all_bdds[leaf], 2 * leaf)
        for n in window.nodes:
            b = all_bdds.get(n)
            if b is not None:
                bdd_to_lit.setdefault(b, 2 * n)
        supports: Dict[int, int] = {}

        def support_mask(node: int) -> int:
            mask = supports.get(node)
            if mask is None:
                mask = 0
                for v in manager.support(all_bdds[node]):
                    mask |= 1 << v
                supports[node] = mask
            return mask

        pairs_in_partition = 0
        candidates = list(window.nodes)
        for f in candidates:
            if pairs_in_partition >= config.max_pairs_per_partition:
                break
            if aig.is_dead(f) or not aig.is_and(f) or f not in all_bdds:
                continue
            bdd_f = all_bdds[f]
            mffc = aig.mffc_size(f)
            pairs_for_node = 0
            for g in candidates:
                if pairs_for_node >= config.max_pairs_per_node:
                    break
                if g == f or aig.is_dead(g) or g not in all_bdds:
                    continue
                bdd_g = all_bdds[g]
                # Trivial-pair filters (Alg. 2 line 9): direct fanins make
                # degenerate differences, and disjoint supports cannot share.
                if g in (lit_node(x) for x in aig.fanins(f)):
                    stats.pairs_filtered_inclusion += 1
                    continue
                shared = support_mask(f) & support_mask(g)
                if bin(shared).count("1") < config.min_shared_support:
                    stats.pairs_filtered_support += 1
                    continue
                pairs_for_node += 1
                pairs_in_partition += 1
                stats.pairs_tried += 1
                gain = _try_difference(aig, manager, f, g, bdd_f, bdd_g,
                                       leaf_literals, bdd_to_lit, mffc,
                                       config, stats)
                if gain is not None:
                    stats.rewrites += 1
                    stats.gain += gain
                    # The rewrite may have killed nodes the reverse table still
                    # references; drop stale entries so later builds stay valid.
                    stale = [b for b, l in bdd_to_lit.items()
                             if aig.is_dead(lit_node(l))]
                    for b in stale:
                        del bdd_to_lit[b]
                    break  # f was replaced; move to the next node
        stats.bdd_nodes_allocated += manager.num_nodes
    finally:
        # Cache clearing is the paper's per-iteration memory discipline;
        # releasing hands the manager's grown capacity (not its nodes) to
        # the next partition instead of discarding it.
        manager.clear_caches()
        bdd_pool.release(manager)


def _reorder_partition(manager: BddManager, all_bdds: Dict[int, int],
                       leaf_literals: List[int]):
    """Sift the partition's BDDs; returns remapped (manager, bdds, literals).

    Returns None when the rebuild trips the node limit.
    """
    from repro.bdd.reorder import sift
    from repro.errors import BddLimitError as _Limit
    nodes = list(all_bdds)
    roots = [all_bdds[n] for n in nodes]
    try:
        new_manager, new_roots, order = sift(manager, roots, max_passes=1)
    except _Limit:
        return None
    remapped = {node: root for node, root in zip(nodes, new_roots)}
    # Position i of the new manager holds old variable order[i], so the
    # AIG literal feeding it moves accordingly.
    new_literals = [leaf_literals[old_var] for old_var in order]
    new_manager.node_limit = manager.node_limit
    return new_manager, remapped, new_literals


def _try_difference(aig: Aig, manager: BddManager, f: int, g: int,
                    bdd_f: int, bdd_g: int, leaf_literals: List[int],
                    bdd_to_lit: Dict[int, int], mffc: int,
                    config: BooleanDifferenceConfig,
                    stats: BooleanDifferenceStats) -> Optional[int]:
    """Alg. 1: compute, filter, and implement ``∂f/∂g ⊕ g`` for one pair."""
    try:
        bdd_diff = manager.apply_xor(bdd_f, bdd_g)
    except BddLimitError:
        stats.bdd_bailouts += 1
        return None
    # Existing-node reuse (lines 5-7): cost of the difference becomes 0.
    known = bdd_to_lit.get(bdd_diff)
    if known is None:
        size = manager.size(bdd_diff)
        if size > config.bdd_size_limit:
            stats.pairs_filtered_bdd_size += 1
            return None
        # Saving filter (lines 11-14).  The BDD size lower-bounds the AIG
        # implementation cost; sharing with existing nodes only helps.
        if size + config.xor_cost > mffc + _sharing_credit(manager, bdd_diff,
                                                           bdd_to_lit):
            stats.pairs_filtered_saving += 1
            return None

    def build() -> int:
        if known is not None:
            diff_lit = known
        else:
            diff_lit = bdd_to_aig(manager, bdd_diff, aig, leaf_literals,
                                  known=bdd_to_lit)
        return aig.add_xor(diff_lit, lit(g))

    min_gain = 0 if config.accept_zero_gain else 1
    return try_replace(aig, f, build, min_gain=min_gain)


def _sharing_credit(manager: BddManager, bdd_diff: int,
                    bdd_to_lit: Dict[int, int]) -> int:
    """Number of difference sub-BDDs that already exist as network nodes.

    Approximates the "total sharing of nodes between the Boolean difference
    implementation and the existing network" term of Alg. 1 line 11.
    """
    credit = 0
    seen: Set[int] = set()
    stack = [bdd_diff]
    while stack:
        node = stack.pop()
        if node <= 1 or node in seen:
            continue
        seen.add(node)
        if node in bdd_to_lit:
            credit += 1
            continue  # everything below is covered by the existing node
        stack.append(manager.low(node))
        stack.append(manager.high(node))
    return credit
