"""Heterogeneous elimination for kernel extraction (Section IV-B).

Elimination (forward node collapsing) grows SOPs before kernel extraction,
and its threshold decides which sharing opportunities become visible.  The
paper's observation: running one network-wide threshold ("homogeneously")
produces SOPs of similar *size* but not similar *characteristics*; instead,

    "We first partition the network ... and we apply elimination - kernel
    extraction to each partition with different eliminate thresholds.  We
    only keep the best one, e.g., the one reducing the largest number of
    literals of the partition. ... Empirically, we found useful to try the
    following eliminate thresholds: (-1, 2, 5, 20, 50, 100, 200, 300)."

Per partition each threshold is tried on a private SOP copy; the winner is
factored back to an AIG and spliced in only when it does not increase the
node count (the move contract of the gradient engine).

The pass runs :func:`optimize_subaig` on every partition window through
the :class:`~repro.parallel.scheduler.PartitionScheduler`.  Unlike the
counter-based engines, the kernel engine keeps its own fold: it counts
applied windows only, and counts its wins per eliminate threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro import obs
from repro.aig.aig import Aig
from repro.opt.balance import balance
from repro.parallel.scheduler import PartitionScheduler
from repro.partition.partitioner import (
    Window,
    extract_window_aig,
    splice_window,
)
from repro.sbm.config import KernelConfig
from repro.sop.network import SopNetwork


@dataclass
class KernelStats:
    """Counters reported by a heterogeneous elimination/kerneling pass."""

    partitions: int = 0
    partitions_improved: int = 0
    literal_saving: int = 0
    node_gain: int = 0
    threshold_wins: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.threshold_wins is None:
            self.threshold_wins = {}


def publish_metrics(stats: KernelStats) -> None:
    """Push one kernel run's counters into the active metrics registry."""
    registry = obs.metrics()
    if not registry.enabled:
        return
    for name, value in (("partitions_improved", stats.partitions_improved),
                        ("literal_saving", stats.literal_saving),
                        ("node_gain", stats.node_gain)):
        if value:
            registry.inc(f"kernel.{name}", value)
    for threshold, wins in stats.threshold_wins.items():
        registry.inc("kernel.threshold_win", wins, threshold=threshold)


def hetero_kernel_pass(aig: Aig, config: Optional[KernelConfig] = None,
                       scheduler: Optional[PartitionScheduler] = None
                       ) -> KernelStats:
    """Run heterogeneous eliminate+kernel over every partition; edits in place.

    Partitions are snapshot up front and optimized independently by
    *scheduler* — inline and in partition order without one (the serial
    path), or on its pool, with its window timeout and fault plan — then
    spliced back in deterministic partition order, so the result is the
    same for every scheduler.
    """
    config = config or KernelConfig()
    report = (scheduler or PartitionScheduler()).run_pass(
        aig, "kernel", optimize_subaig, config, config.partition)
    stats = KernelStats(partitions=report.num_windows)
    for record in report.records:
        if not record.applied:
            continue
        stats.partitions_improved += 1
        stats.literal_saving += int(record.payload.get("literal_saving", 0))
        stats.node_gain += record.gain
        threshold = record.payload.get("threshold")
        if threshold is not None:
            stats.threshold_wins[threshold] = (
                stats.threshold_wins.get(threshold, 0) + 1)
    return stats


def optimize_subaig(sub: Aig, config: Optional[KernelConfig] = None):
    """Worker entry point: heterogeneous eliminate+kernel on one sub-AIG.

    Pure function of *sub* (the extracted window with leaves as PIs and
    roots as POs): returns ``(changed, optimized sub-AIG or None, payload)``
    for the parallel scheduler.
    """
    config = config or KernelConfig()
    if sub.num_ands < 4:
        return False, None, {}
    best = _best_threshold_result(sub, config)
    if best is None:
        return False, None, {}
    threshold, optimized, saving = best
    if optimized.num_ands >= sub.num_ands:
        return False, None, {}  # not an improvement at the AIG level
    registry = obs.metrics()
    registry.inc("kernel.threshold_win", threshold=threshold)
    if saving:
        registry.inc("kernel.literal_saving", saving)
    return True, optimized, {"threshold": threshold,
                             "literal_saving": saving}


def optimize_partition(aig: Aig, window: Window, config: KernelConfig,
                       stats: KernelStats) -> None:
    """Try every eliminate threshold on the partition, keep the best."""
    from repro.partition.partitioner import refresh_window
    refreshed = refresh_window(aig, window)
    if refreshed is None or refreshed.size < 4:
        return
    window = refreshed
    sub, _mapping, _root_to_po = extract_window_aig(aig, window)
    best = _best_threshold_result(sub, config)
    if best is None:
        return
    threshold, optimized, saving = best
    if optimized.num_ands >= window.size:
        return  # not an improvement at the AIG level
    delta = splice_window(aig, window, optimized)
    if delta > 0:
        # The strashed result interacted badly with surrounding logic;
        # restore the original structure (function is unchanged either way).
        splice_window(aig, window, sub)
        return
    stats.partitions_improved += 1
    stats.literal_saving += saving
    stats.node_gain -= delta
    stats.threshold_wins[threshold] = stats.threshold_wins.get(threshold, 0) + 1


def _best_threshold_result(sub: Aig, config: KernelConfig
                           ) -> Optional[Tuple[int, Aig, int]]:
    """(threshold, optimized sub-AIG, literal saving) of the best threshold."""
    base_net = SopNetwork.from_aig(sub)
    base_literals = base_net.total_literals()
    best: Optional[Tuple[int, Aig, int]] = None
    # One content-keyed kernel/saving memo for the whole threshold sweep —
    # different thresholds eliminate to heavily overlapping covers, so
    # later thresholds replay most kernel evaluations from cache.
    kernel_cache: dict = {}
    for threshold in config.eliminate_thresholds:
        net = SopNetwork.from_aig(sub)
        net.eliminate(threshold, max_cubes=config.max_cubes)
        net.extract_kernels(max_rounds=config.kernel_rounds,
                            _cache=kernel_cache)
        net.extract_common_cubes(max_rounds=config.kernel_rounds)
        saving = base_literals - net.total_literals()
        candidate = balance(net.to_aig())
        if best is None or candidate.num_ands < best[1].num_ands:
            best = (threshold, candidate, saving)
    return best


def homogeneous_kernel_pass(aig: Aig, threshold: int,
                            config: Optional[KernelConfig] = None
                            ) -> KernelStats:
    """Ablation baseline: one fixed eliminate threshold network-wide.

    Used by the ablation benchmark to quantify the benefit of heterogeneous
    thresholds over the traditional homogeneous setting.
    """
    config = config or KernelConfig()
    single = KernelConfig(eliminate_thresholds=(threshold,),
                          max_cubes=config.max_cubes,
                          kernel_rounds=config.kernel_rounds,
                          partition=config.partition)
    return hetero_kernel_pass(aig, single)
