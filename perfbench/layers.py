"""What the traced run wraps, and the per-layer metrics derived from it.

Times are self times (see :mod:`tracer`); counts come from wrapped calls and
from the stats objects the wrapped entry points return.  Every metric is
reported per round of the workload, so it compares with ``wall_s`` and
repeats exactly however many rounds a run fits in.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Tuple

from tracer import Tracer

#: The nine stages of the default flow, in execution order.
STAGES = ("aig_script", "gradient", "kernel", "mspf", "simresub",
          "collapse_decomp", "boolean_diff", "sat_sweep", "balance")

#: Counts that vary with thread timing and so cannot back a claim.
TIMING_DEPENDENT = ("parallel.stolen_windows",)

_STAGE_RECORD = re.compile(r"([a-z_]+)\[r?\d+\]")


def _gradient(counts, stats) -> None:
    counts["sbm.gradient.moves"] += stats.moves_tried
    counts["sbm.gradient.accepted"] += stats.moves_succeeded


def _kernel(counts, stats) -> None:
    counts["sbm.kernel.windows"] += stats.partitions
    counts["sbm.kernel.improved"] += stats.partitions_improved


def _mspf(counts, stats) -> None:
    counts["sbm.mspf.bdd_bailouts"] += stats.bdd_bailouts


def _simresub(counts, stats) -> None:
    counts["sbm.simresub.proposed"] += stats.candidates_proposed
    counts["sbm.simresub.refuted"] += stats.candidates_refuted


def _boolean_diff(counts, stats) -> None:
    counts["sbm.boolean_diff.pairs"] += stats.pairs_tried


def _flow(counts, result) -> None:
    """Stage gains, guard rollbacks and search counters of one flow."""
    _network, stats = result
    size = None
    for record in stats.records:
        if record.name == "initial":
            size = record.size
            continue
        # Stage rows read "<stage>[<iteration>]" or "<stage>[r<round>]";
        # rollback and skip rows carry a ":" and are not stages.
        match = _STAGE_RECORD.fullmatch(record.name)
        if match and size is not None:
            counts[f"flow.gain.{match.group(1)}"] += size - record.size
            size = record.size
    if stats.guard is not None:
        counts["guard.rollbacks"] += stats.guard.rollbacks
    if stats.orchestrate:
        counts["orchestrate.candidates"] += sum(
            len(row["candidates"]) for row in stats.orchestrate["rounds"])
        memo = stats.orchestrate.get("stage_memo") or {}
        hits = memo.get("memory_hits", 0) + memo.get("disk_hits", 0)
        counts["orchestrate.memo_hits"] += hits
        counts["orchestrate.memo_lookups"] += hits + memo.get("misses", 0)


def _pass(counts, report) -> None:
    """Partition passes that went through a process pool."""
    if report.jobs > 1:
        counts["parallel.windows"] += report.num_windows
        counts["parallel.applied"] += report.num_applied
        counts["parallel.fallbacks"] += report.num_fallbacks
        counts["parallel.pool_restarts"] += report.pool_restarts


def _campaign(counts, report) -> None:
    counts["campaign.hits"] += report.hits
    counts["campaign.misses"] += report.misses
    counts["campaign.dedup"] += report.deduped
    counts["parallel.stolen_windows"] += report.stolen_windows


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; call after the workload's imports."""
    import repro.campaign  # noqa: F401  (load every module that binds
    import repro.orchestrate.search  # noqa: F401  a wrapped callable)
    import repro.sat.redundancy  # noqa: F401
    import repro.sbm.flow  # noqa: F401
    from repro.aig.aig import Aig
    from repro.aig.simprogram import SimProgram
    from repro.bdd.manager import BddManager
    from repro.campaign.cache import ResultCache
    from repro.guard.stage_guard import StageGuard
    from repro.parallel.scheduler import PartitionScheduler
    from repro.parallel.window_io import CompactAig
    from repro.sat.solver import SatSolver

    function, method = tracer.patch_function, tracer.patch_method
    primitive = {"outermost": True, "detail": False}
    flow_only = ["repro.sbm.flow"]

    function("repro.sbm.gradient", "gradient_optimize", "sbm.gradient",
             harvest=_gradient)
    function("repro.sbm.hetero_kernel", "hetero_kernel_pass", "sbm.kernel",
             harvest=_kernel)
    function("repro.sbm.mspf", "mspf_pass", "sbm.mspf", harvest=_mspf)
    function("repro.sbm.simresub", "simresub_pass", "sbm.simresub",
             harvest=_simresub)
    function("repro.sbm.boolean_difference", "boolean_difference_pass",
             "sbm.boolean_diff", harvest=_boolean_diff)

    # The flow's own script stages: only the flow's names define them, so
    # a balance inside a kernel window stays kernel time.
    function("repro.opt.scripts", "compress2rs_step", "opt.aig_script",
             where=flow_only)
    function("repro.opt.refactor", "refactor", "opt.collapse_decomp",
             where=flow_only)
    function("repro.opt.balance", "balance", "opt.balance", where=flow_only)
    function("repro.sat.sweep", "sat_sweep", "sat.sweep", where=flow_only)
    function("repro.sbm.flow", "sbm_flow", "flow", harvest=_flow)
    function("repro.orchestrate.search", "orchestrated_flow", "orchestrate")

    method(StageGuard, "check", "guard.check")
    function("repro.sat.equivalence", "find_counterexample", "sat.cec",
             span=False)
    for name in ("solve", "solve_limited"):
        method(SatSolver, name, "sat.solve", **primitive)

    for name in ("ite", "apply_and", "apply_or", "apply_xor", "apply_xnor"):
        method(BddManager, name, "bdd.ops", **primitive)
    function("repro.bdd.pool", "acquire", "bdd.managers", span=False)

    for name in ("kernels", "best_kernel"):
        function("repro.sop.kernels", name, "sop.kernels", **primitive)

    for name in ("cleanup", "cleanup_with_map"):
        method(Aig, name, "aig.cleanup", **primitive)
    method(SimProgram, "run", "aig.sim", **primitive)
    for module, name in (("repro.aig.simulate", "simulate_words"),
                         ("repro.aig.simulate", "simulate_complete"),
                         ("repro.aig.simprogram", "simulate_wide"),
                         ("repro.aig.simprogram", "sim_program")):
        function(module, name, "aig.sim", **primitive)
    function("repro.aig.cuts", "enumerate_cuts", "aig.cuts", **primitive)
    for name in ("npn_canonical", "npn_semicanonical"):
        function("repro.tt.npn", name, "tt.npn", **primitive)
    for name in ("partition_network", "refresh_window", "extract_window_aig",
                 "splice_window"):
        function("repro.partition.partitioner", name, "partition",
                 **primitive)

    method(CompactAig, "from_aig", "window_io.encode", **primitive)
    method(CompactAig, "to_aig", "window_io.decode", **primitive)

    method(PartitionScheduler, "run_pass", "parallel.pass", span=False,
           harvest=_pass)
    method(PartitionScheduler, "_pool_round", "parallel.wait")

    function("repro.campaign.cache", "flow_cache_key", "campaign.key")
    method(ResultCache, "lookup", "campaign.lookup")
    method(ResultCache, "store", "campaign.store")
    function("repro.campaign.runner", "run_campaign", "campaign.runner",
             harvest=_campaign)


#: name -> (unit, better) of every per-layer metric, in report order.
METRICS: Dict[str, Tuple[str, str]] = {}


def _declare(names, unit: str, better: str) -> None:
    for name in names:
        METRICS[name] = (unit, better)


_ENGINES = ("gradient", "kernel", "mspf", "simresub", "boolean_diff")
_declare([f"sbm.{engine}.self_s" for engine in _ENGINES], "s", "lower")
_declare(["sbm.gradient.moves"], "count", "lower")
_declare(["sbm.gradient.accept_ratio"], "ratio", "higher")
_declare(["sbm.kernel.windows"], "count", "lower")
_declare(["sbm.kernel.improved_ratio"], "ratio", "higher")
_declare(["sbm.mspf.bdd_bailouts"], "count", "lower")
_declare(["sbm.simresub.refuted_ratio"], "ratio", "lower")
_declare(["sbm.boolean_diff.pairs"], "count", "lower")
_declare([f"opt.{stage}.self_s"
          for stage in ("aig_script", "collapse_decomp", "balance")],
         "s", "lower")
_declare(["flow.self_s"], "s", "lower")
_declare([f"flow.gain.{stage}" for stage in STAGES], "nodes", "higher")
_declare(["guard.check.calls"], "count", "lower")
_declare(["guard.check.self_s"], "s", "lower")
_declare(["guard.rollbacks"], "count", "lower")
_declare(["sat.solve.calls"], "count", "lower")
_declare(["sat.solve.self_s"], "s", "lower")
_declare(["sat.cec.calls"], "count", "lower")
_declare(["sat.sweep.self_s"], "s", "lower")
_declare(["bdd.ops.calls"], "count", "lower")
_declare(["bdd.ops.self_s"], "s", "lower")
_declare(["bdd.managers"], "count", "lower")
_declare(["sop.kernels.calls"], "count", "lower")
_declare(["sop.kernels.self_s"], "s", "lower")
_declare(["aig.cleanup.calls", "aig.sim.calls"], "count", "lower")
_declare(["aig.cleanup.self_s", "aig.sim.self_s", "aig.cuts.self_s",
          "tt.npn.self_s", "partition.self_s"], "s", "lower")
_declare(["window_io.encode.calls"], "count", "lower")
_declare(["window_io.encode.self_s"], "s", "lower")
_declare(["window_io.decode.calls"], "count", "lower")
_declare(["window_io.decode.self_s"], "s", "lower")
_declare(["parallel.windows"], "count", "lower")
_declare(["parallel.applied_ratio"], "ratio", "higher")
_declare(["parallel.fallbacks", "parallel.pool_restarts"], "count", "lower")
_declare(["parallel.wait_s", "parallel.worker_cpu_s"], "s", "lower")
_declare(["parallel.worker_rss_mb"], "MB", "lower")
_declare(["parallel.stolen_windows"], "count", "higher")
_declare(["campaign.key.calls"], "count", "lower")
_declare(["campaign.key.self_s"], "s", "lower")
_declare(["campaign.lookup.calls"], "count", "lower")
_declare(["campaign.lookup.self_s"], "s", "lower")
_declare(["campaign.hit_ratio"], "ratio", "higher")
_declare(["campaign.store.calls"], "count", "lower")
_declare(["campaign.store.self_s", "campaign.runner.self_s"], "s", "lower")
_declare(["campaign.dedup"], "count", "higher")
_declare(["orchestrate.self_s"], "s", "lower")
_declare(["orchestrate.candidates"], "count", "lower")
_declare(["orchestrate.memo_hit_ratio"], "ratio", "higher")
_declare(["setup.import_s", "setup.inputs_s", "setup.fill_s"], "s", "lower")
_declare(["trace.overhead_s", "unattributed.self_s"], "s", "lower")

#: Layers whose self time is reported under a name other than
#: ``<layer>.self_s``.
_SELF_NAMES = {"parallel.wait": "parallel.wait_s", "run": "unattributed.self_s"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(totals: Dict[str, Tuple[int, float]], counts: Dict[str, float],
           rounds: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run, per round.

    *totals* and *counts* come from :class:`Tracer`; *extra* carries what
    the workload measured itself: set-up times, pool worker accounting and
    the trace overhead.
    """
    values: Dict[str, float] = {}
    for layer, (calls, self_s) in totals.items():
        values[_SELF_NAMES.get(layer, f"{layer}.self_s")] = self_s / rounds
        values[f"{layer}.calls"] = calls / rounds
    counts = defaultdict(float, counts)
    for key, value in list(counts.items()):
        values[key] = value / rounds
    values["bdd.managers"] = counts["bdd.managers.calls"] / rounds
    values["sbm.gradient.accept_ratio"] = _ratio(
        counts["sbm.gradient.accepted"], counts["sbm.gradient.moves"])
    values["sbm.kernel.improved_ratio"] = _ratio(
        counts["sbm.kernel.improved"], counts["sbm.kernel.windows"])
    values["sbm.simresub.refuted_ratio"] = _ratio(
        counts["sbm.simresub.refuted"], counts["sbm.simresub.proposed"])
    values["parallel.applied_ratio"] = _ratio(
        counts["parallel.applied"], counts["parallel.windows"])
    values["campaign.hit_ratio"] = _ratio(
        counts["campaign.hits"], counts["campaign.hits"]
        + counts["campaign.misses"])
    values["orchestrate.memo_hit_ratio"] = _ratio(
        counts["orchestrate.memo_hits"], counts["orchestrate.memo_lookups"])
    values.update(extra)
    return {name: values.get(name, 0.0) for name in METRICS}
