"""Maximum Set of Permissible Functions (MSPF) computation with BDDs.

Section IV-C revisits MSPF — the strongest classical don't-care
interpretation (Muroga's transduction method) — with BDDs on medium-size
partitions:

* nodes are processed in topological order, "further sorted w.r.t. an
  estimated saving metric" (we use MFFC size),
* per node the positive/negative cofactors of every partition output with
  respect to the node are computed by substituting a fresh BDD variable at
  the node and cofactoring; only the node's fanout cone inside the window
  is rebuilt, and only the outputs in it are cofactored (the others do
  not see the node),
* ``mspf(node) = ∧_i ((¬f0(po_i) ⊕ f1(po_i)) ∨ dc(po_i))``, with the loop
  stopping early "if at any point ... mspf(node) = bdd(0)",
* the permissible set then drives resubstitution: a replacement ``new`` is
  *connectable* when ``bdd(new) ∧ ¬mspf = bdd(old) ∧ ¬mspf`` — and thanks to
  BDD canonicity we search for *many* connectable fanins at once and try an
  irredundant subset, the key enhancement over the truth-table MSPF of [1];
  each test is one :meth:`~repro.bdd.manager.BddManager.agree` walk, which
  builds no node,
* BDD memory-limit bailouts set the node's BDD size to 0 and move on.  The
  budget (:attr:`~repro.sbm.config.MspfConfig.bdd_node_limit`) counts the
  nodes the window's manager keeps: the window's BDDs, each judged node's
  fanout cone over the fresh variable, its cofactors and MSPF terms, and
  the care set ``¬mspf``; the connectability tests add nothing to it.

The pass runs :func:`optimize_subaig` on every partition window through
the :class:`~repro.parallel.scheduler.PartitionScheduler`; the fields of
:class:`MspfStats` are the engine's one list of counters, which the
window payload, the pass's fold and the ``mspf.*`` metrics all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.aig.aig import Aig, lit, lit_is_compl, lit_node
from repro.bdd import pool as bdd_pool
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.to_aig import aig_window_to_bdds
from repro.errors import BddLimitError
from repro.opt.shared import try_replace
from repro.parallel.scheduler import PartitionScheduler
from repro.parallel.stats import (applied_counters, window_counters,
                                  worker_counters)
from repro.parallel.window_io import whole_network_window
from repro.partition.partitioner import Window
from repro.sbm.config import MspfConfig


@dataclass
class MspfStats:
    """Counters reported by an MSPF optimization pass."""

    partitions: int = 0
    nodes_processed: int = 0
    mspf_nonzero: int = 0
    bdd_bailouts: int = 0
    connectable_found: int = 0
    rewrites: int = 0
    gain: int = 0


def publish_metrics(counters: Dict[str, Any]) -> None:
    """Push MSPF counters into the active metrics registry as ``mspf.*``.

    Three callers, so ``mspf.*`` aggregates every MSPF execution of the
    run: the worker entry point (its window's counters but the applied
    ones, against the worker's local registry, shipped back in the window
    payload), the pass (the applied ``rewrites`` and ``gain`` it folded)
    and the gradient moves that run MSPF inline (all of them: their gain
    is the network's own).  Bailouts are reported even at zero.
    """
    obs.publish_counters("mspf", counters, always=("bdd_bailouts",))


def mspf_pass(aig: Aig, config: Optional[MspfConfig] = None,
              scheduler: Optional[PartitionScheduler] = None) -> MspfStats:
    """Run BDD-based MSPF optimization over every partition; edits in place.

    Partitions are snapshot up front and optimized independently by
    *scheduler* — inline and in partition order without one (the serial
    path), or on its pool, with its window timeout and fault plan — then
    spliced back in deterministic partition order, so the result is the
    same for every scheduler.  MSPF validity is unaffected by the
    snapshot: each window's observability boundary (its roots) becomes the
    PO set of the extracted sub-network, exactly the boundary the
    permissible functions are computed against.
    """
    config = config or MspfConfig()
    stats = (scheduler or PartitionScheduler()).run_pass(
        aig, "mspf", optimize_subaig, config,
        config.partition).fold(MspfStats())
    publish_metrics(applied_counters(stats))
    return stats


def optimize_subaig(sub: Aig, config: Optional[MspfConfig] = None):
    """Worker entry point: MSPF resubstitution on one extracted sub-AIG.

    Pure function of *sub*: the window's leaves are the sub-network's PIs
    and its roots the POs, so the whole sub-network is one MSPF window.
    Returns ``(changed, optimized sub-AIG or None, payload)``.
    """
    config = config or MspfConfig()
    stats = MspfStats()
    if sub.num_pis and sub.num_ands:
        optimize_partition(sub, whole_network_window(sub), config, stats)
    payload = window_counters(stats)
    publish_metrics(worker_counters(payload))
    changed = stats.rewrites > 0
    return changed, (sub.cleanup() if changed else None), payload


def optimize_partition(aig: Aig, window: Window, config: MspfConfig,
                       stats: MspfStats) -> None:
    """MSPF-based resubstitution inside one partition."""
    # Earlier edits elsewhere can change the window's boundary (fanins
    # rewired outside it) and which nodes are externally referenced; MSPF
    # validity requires the *current* observability boundary, so recompute
    # the whole window against the network's present state.
    from repro.partition.partitioner import refresh_window
    refreshed = refresh_window(aig, window)
    if refreshed is None or not refreshed.leaves:
        return
    window = refreshed
    root_set = set(window.roots)
    nodes = [n for n in window.nodes if n not in root_set]
    if not nodes:
        return
    # Estimated-saving ordering: big MFFCs first within the topological list.
    nodes.sort(key=lambda n: -aig.mffc_size(n))
    alive = list(window.nodes)
    rebuilt = _window_bdds(aig, window, alive, config)
    if rebuilt is None:
        return
    manager, all_bdds, z_var = rebuilt
    try:
        for n in nodes:
            if aig.is_dead(n) or not aig.is_and(n) or n not in all_bdds:
                continue
            if n in root_set:
                # Cascade merges during earlier rewrites can promote a member
                # to the observability boundary; never optimize a current root.
                continue
            stats.nodes_processed += 1
            mspf = _compute_mspf(aig, window, manager, all_bdds, z_var, n,
                                 config, stats)
            if mspf is None or mspf == FALSE:
                continue
            stats.mspf_nonzero += 1
            try:
                gain = _resub_under_mspf(aig, window, manager, all_bdds, n,
                                         mspf, config, stats)
            except BddLimitError:
                # Memory-limit bailout (Section IV-C): "the algorithm sets the
                # BDD size of the node to 0 ... the computation can then
                # continue by considering the other nodes."
                stats.bdd_bailouts += 1
                continue
            if gain:
                stats.rewrites += 1
                stats.gain += gain
                # Internal functions changed (within their permissible sets)
                # and cascade merges may have moved the observability
                # boundary: refresh the whole window and its BDDs before
                # judging further nodes.
                refreshed = refresh_window(aig, window)
                if refreshed is None:
                    return
                window = refreshed
                root_set = set(window.roots)
                alive = list(window.nodes)
                # Recycle the window's own manager (container capacity,
                # not nodes) instead of constructing a fresh one per
                # rebuild; reset_for_reuse replays fresh-manager state
                # exactly.
                reuse, manager = manager, None
                rebuilt = _window_bdds(aig, window, alive, config,
                                       reuse=reuse)
                if rebuilt is None:
                    return
                manager, all_bdds, z_var = rebuilt
    finally:
        if manager is not None:
            bdd_pool.release(manager)


def _window_bdds(aig: Aig, window: Window, alive: List[int],
                 config: MspfConfig, reuse: Optional[BddManager] = None):
    """(manager, node→bdd, z variable) for the window, or None on bailout."""
    num_vars = len(window.leaves) + 1
    if reuse is not None:
        manager = reuse
        manager.reset_for_reuse(num_vars, node_limit=config.bdd_node_limit)
    else:
        manager = bdd_pool.acquire(num_vars,
                                   node_limit=config.bdd_node_limit)
    try:
        z_var = len(window.leaves)
        leaf_bdds = {leaf: manager.var(i)
                     for i, leaf in enumerate(window.leaves)}
        all_bdds = aig_window_to_bdds(aig, [n for n in alive if aig.is_and(n)],
                                      leaf_bdds, manager)
    except BddLimitError:
        return None
    return manager, all_bdds, z_var


def _compute_mspf(aig: Aig, window: Window, manager: BddManager,
                  all_bdds: Dict[int, int], z_var: int, node: int,
                  config: MspfConfig, stats: MspfStats,
                  output_dcs: Optional[Dict[int, int]] = None) -> Optional[int]:
    """The paper's MSPF loop for one node; None on memory bailout.

    Only the roots in the node's fanout cone are cofactored: every other
    root has ``f0 == f1``, so its term is 1.  ``output_dcs`` optionally
    maps root node → pre-existing don't-care BDD (the ``dc(po_i)`` term).
    """
    try:
        with_z = _bdds_with_free_node(aig, window, manager, all_bdds,
                                      z_var, node)
        if with_z is None:
            stats.bdd_bailouts += 1
            return None
        mspf = TRUE
        for root in window.roots:
            fz = with_z.get(root)
            if fz is None:
                continue
            f0 = manager.cofactor(fz, z_var, False)
            f1 = manager.cofactor(fz, z_var, True)
            insensitive = manager.apply_xnor(f0, f1)
            if output_dcs and root in output_dcs:
                insensitive = manager.apply_or(insensitive, output_dcs[root])
            mspf = manager.apply_and(mspf, insensitive)
            if mspf == FALSE:
                return FALSE  # early stop (Section IV-C)
        return mspf
    except BddLimitError:
        stats.bdd_bailouts += 1
        return None


def _bdds_with_free_node(aig: Aig, window: Window, manager: BddManager,
                         all_bdds: Dict[int, int], z_var: int,
                         node: int) -> Optional[Dict[int, int]]:
    """BDDs of *node*'s fanout cone in the window, *node* taken as ``z``.

    Maps *node* and every window node that reaches it through window
    nodes to its function of the leaves and ``z``; every other node keeps
    its ``all_bdds`` function, which does not depend on ``z``.  None when
    a fanin's BDD was lost to the node limit.
    """
    values: Dict[int, int] = {node: manager.var(z_var)}
    for n in window.nodes:
        if n in values or aig.is_dead(n) or not aig.is_and(n):
            continue
        f0, f1 = aig.fanins(n)
        n0, n1 = lit_node(f0), lit_node(f1)
        if n0 not in values and n1 not in values:
            continue
        b0 = values.get(n0, all_bdds.get(n0))
        b1 = values.get(n1, all_bdds.get(n1))
        if b0 is None or b1 is None:
            return None
        if lit_is_compl(f0):
            b0 = manager.negate(b0)
        if lit_is_compl(f1):
            b1 = manager.negate(b1)
        values[n] = manager.apply_and(b0, b1)
    return values


def _resub_under_mspf(aig: Aig, window: Window, manager: BddManager,
                      all_bdds: Dict[int, int], node: int, mspf: int,
                      config: MspfConfig, stats: MspfStats) -> int:
    """Try constants and connectable existing nodes under the MSPF.

    Each test is one :meth:`~repro.bdd.manager.BddManager.agree` walk, so
    the only BDD this allocates is the care set ``¬mspf``.
    """
    care = manager.negate(mspf)
    bdd_node = all_bdds[node]
    # Constants first: biggest wins.
    if manager.agree(bdd_node, FALSE, care):
        gain = try_replace(aig, node, lambda: 0, min_gain=1)
        if gain:
            return gain
    if manager.agree(bdd_node, TRUE, care):
        gain = try_replace(aig, node, lambda: 1, min_gain=1)
        if gain:
            return gain
    # Many connectable candidates at once (each check is one walk over
    # the candidate, the node and the care set); keep an irredundant
    # subset ordered by the reclaimable MFFC.
    candidates: List[Tuple[int, int]] = []  # (candidate literal, priority)
    for d in window.leaves + window.nodes:
        if d == node or aig.is_dead(d) or d not in all_bdds:
            continue
        bdd_d = all_bdds[d]
        if manager.agree(bdd_d, bdd_node, care):
            candidates.append((lit(d), 0))
        elif manager.agree(bdd_d, bdd_node, care, complement=True):
            candidates.append((lit(d, True), 0))
        if len(candidates) >= config.max_connectable_fanins:
            break
    stats.connectable_found += len(candidates)
    for candidate, _priority in candidates:
        gain = try_replace(aig, node, lambda c=candidate: c, min_gain=1)
        if gain:
            return gain
    return 0
