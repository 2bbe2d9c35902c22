"""The SBM Boolean resynthesis flow (Section V-A), hardened by ``repro.guard``.

"We created a Boolean resynthesis script which runs the following
optimizations:

* AIG optimization: ... state-of-the-art methods [1] and our gradient-based
  AIG minimization,
* heterogeneous elimination for kernel extraction, applied on partitioned
  networks of medium-large sizes,
* enhanced MSPF computation, using partitions of medium size and BDDs,
* collapse and Boolean decomposition, applied on reconvergent MFFC of the
  logic network,
* Boolean difference-based optimization to unveil hard to find optimization
  and escape local minima,
* SAT-based sweeping and redundancy removal as in [9].

The optimization flow is iterated twice, with different efforts.  Further,
after each transformation, the logic network is translated into an AIG."

Our networks are always AIGs, so the "translate to AIG" step becomes a
:meth:`~repro.aig.Aig.cleanup` compaction after every stage; the "collapse
and Boolean decomposition on reconvergent MFFCs" stage maps to the
wide-cut refactoring pass.

On top of the paper's engines, the flow runs **simulation-guided
resubstitution** (:mod:`repro.sbm.simresub`, after MSPF) — the
BDD-free fifth engine whose signature-filter/SAT-validate CEGAR loop
stays effective on the large arithmetic benchmarks where the BDD-filtered
engines bail out; disable with ``FlowConfig.enable_simresub = False``.

Execution model
---------------
One **flow shell** (:func:`_run_flow`) owns the flow record,
:class:`FlowStats` with its guard report, and runs one driver: this
waterfall or the ``repro.orchestrate`` search.  Both record a stage
through one recorder, :meth:`FlowStats.record_stage` (the search for its
round winners only).

The iteration body is a **data-driven stage table** (:func:`_stage_specs`),
and every stage of every flow — this waterfall and each candidate of the
search — runs through one executor, :func:`run_stage`.  It owns, in order:

* **budgets** — a :class:`repro.guard.budget.DeadlineManager` splits
  ``FlowConfig.flow_timeout_s`` across the remaining stages and may run a
  stage at reduced effort (fewer kernel thresholds, smaller MSPF
  partitions, halved budgets) or skip it outright;
* **the stage memo** — a full-effort stage whose (input network, stage,
  knobs, effort, depth limit) key is in the
  :class:`~repro.campaign.cache.StageMemo` replays the stored network;
  a fresh result is committed unless it was rolled back;
* **the window scheduler** — a stage that is not replayed gets one
  :class:`~repro.parallel.scheduler.PartitionScheduler` for its partition
  windows, on the run's one pool (``FlowConfig.pool``; :func:`sbm_flow`
  owns it for a ``jobs != 1`` run that was given none) or inline;
* **the depth guard** — ``max_depth_growth`` rebalances a stage result
  and rolls it back if it still exceeds the level budget;
* **chaos** — a :class:`repro.guard.chaos.FaultPlan` may corrupt the
  stage result at a site the caller names;
* **the equivalence guard** — with ``verify_each_step``, every result,
  fresh or replayed, is checked by the :class:`repro.guard.stage_guard
  .StageGuard`, one :func:`repro.sat.equivalence.find_counterexample`
  call against the last verified network (complete simulation up to 12
  inputs; above, 256 random patterns, then the SAT sweep of the miter),
  and a miscomparing one is rolled back to that network.

The waterfall memoizes whenever a campaign ``ResultCache`` is active
(:func:`repro.campaign.cache.cache_context`), so a killed run resumes by
rerunning it against the same cache directory.

With none of those knobs set, the executor is behaviourally identical to
the historical straight-line flow.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.aig.aig import Aig, lit_not
from repro.campaign.cache import (
    StageMemo,
    active_cache,
    canonical_stage_config,
    network_fingerprint,
    stage_cache_key,
)
from repro.guard.budget import FULL, REDUCED, SKIP, DeadlineManager, StagePlan
from repro.guard.chaos import ChaosInterrupt
from repro.guard.stage_guard import GuardReport, StageGuard
from repro.sat.equivalence import Counterexample
from repro.opt.balance import balance
from repro.opt.refactor import refactor
from repro.opt.scripts import compress2rs_step
from repro.parallel.scheduler import PartitionScheduler
from repro.parallel.shared_pool import SharedProcessPool
from repro.partition.partitioner import PartitionConfig
from repro.sat.redundancy import remove_redundancies
from repro.sat.sweep import sat_sweep
from repro.sbm.boolean_difference import boolean_difference_pass
from repro.sbm.config import FlowConfig, GradientConfig
from repro.sbm.gradient import gradient_optimize
from repro.sbm.hetero_kernel import hetero_kernel_pass
from repro.sbm.mspf import mspf_pass
from repro.sbm.simresub import simresub_pass


@dataclass
class StageRecord:
    """One flow-stage record: name, resulting size, elapsed seconds."""

    name: str
    size: int
    elapsed_s: float = 0.0


@dataclass
class FlowStats:
    """The flow record: size and timing after every stage, guard events."""

    records: List[StageRecord] = field(default_factory=list)
    runtime_s: float = 0.0
    #: what the hardened execution layer did (degradations, rollbacks,
    #: memo commits and replays, injected faults)
    guard: GuardReport = field(default_factory=GuardReport)
    #: pass-ordering search summary (``repro.orchestrate``): per-round
    #: candidates, the chosen ordering, and stage-memo counters; ``None``
    #: for the classic fixed waterfall
    orchestrate: Optional[Dict[str, Any]] = None

    def record(self, stage: str, size: int, elapsed_s: float = 0.0) -> None:
        """Append a stage record (resulting size, elapsed seconds)."""
        self.records.append(StageRecord(stage, size, elapsed_s))

    def record_stage(self, outcome: StageOutcome, tag: str,
                     iteration: int) -> None:
        """One stage's rows (``<stage>[<tag>]`` and its ``:skipped``,
        ``:rolled_back`` and ``:guard_rollback`` variants), guard events
        and ``guard.stage_*`` metrics: the only code that writes them."""
        name = outcome.stage
        plan = outcome.plan
        report = self.guard
        if plan is not None and outcome.level == SKIP:
            self.record(f"{name}:skipped[{tag}]", outcome.nodes_after)
            report.add("skipped", name, iteration,
                       remaining_s=plan.remaining_s)
            obs.metrics().inc("guard.stage_skipped", stage=name)
            return
        if plan is not None and outcome.level == REDUCED:
            report.add("degraded", name, iteration,
                       remaining_s=plan.remaining_s, share_s=plan.share_s)
            obs.metrics().inc("guard.stage_degraded", stage=name)
        if outcome.cached:
            report.add("replayed", name, iteration)
        if outcome.depth_rollback is not None:
            self.record(f"{name}:rolled_back[{tag}]", outcome.depth_rollback)
        if outcome.counterexample is not None:
            self.record(f"{name}:guard_rollback[{tag}]", outcome.nodes_after)
            report.add("rolled_back", name, iteration,
                       counterexample=outcome.counterexample.to_dict())
        if outcome.stored:
            report.add("checkpoint", name, iteration)
        self.record(f"{name}[{tag}]", outcome.nodes_after, outcome.elapsed_s)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation for the run report."""
        doc: Dict[str, Any] = {
            "runtime_s": self.runtime_s,
            "stages": [{"name": r.name, "size": r.size,
                        "elapsed_s": r.elapsed_s} for r in self.records],
        }
        if self.orchestrate is not None:
            doc["orchestrate"] = self.orchestrate
        return doc


# -- stage table ---------------------------------------------------------------

@dataclass(frozen=True)
class _StageSpec:
    """One row of the iteration's stage table."""

    name: str
    run: Callable[[Aig, "_StageCtx"], Aig]
    #: what the depth guard (and the stage span) measures against:
    #: "raw" = the network object itself, "cleanup" = a compacted copy,
    #: "none" = no snapshot (stage is exempt from the depth guard)
    snapshot: str = "cleanup"
    depth_guard: bool = True
    #: exempt from the degradation ladder (cheap normalization stages)
    vital: bool = False


@dataclass
class _StageCtx:
    """Everything a stage runner may consult."""

    config: FlowConfig
    effort: int          #: 1-based iteration number (the paper's effort)
    level: int           #: degradation rung: FULL or REDUCED
    span: Any            #: the stage's open observability span
    #: runs the stage's partition windows (pool, window timeout, fault
    #: plan under the site prefix ``it<effort>:<stage>``)
    scheduler: PartitionScheduler


def _reduced_partition(p: PartitionConfig) -> PartitionConfig:
    """Half-size partitions: the degradation ladder's cheaper windows."""
    return PartitionConfig(max_levels=max(4, p.max_levels // 2),
                           max_size=max(32, p.max_size // 2),
                           max_leaves=max(8, p.max_leaves // 2))


def _run_aig_script(aig: Aig, ctx: _StageCtx) -> Aig:
    if ctx.level == REDUCED:
        # One balance instead of the full b;rs;rw;rf;rs;rwz;rfz script.
        return balance(aig)
    return compress2rs_step(aig)


def _run_gradient(aig: Aig, ctx: _StageCtx) -> Aig:
    g = ctx.config.gradient
    budget = g.cost_budget * ctx.effort
    extension = g.budget_extension
    if ctx.level == REDUCED:
        budget = max(1, budget // 2)
        extension = 0
    gradient_optimize(aig, GradientConfig(
        cost_budget=budget,
        window_k=g.window_k,
        min_gain_gradient=g.min_gain_gradient,
        budget_extension=extension,
        partition=g.partition))
    return aig.cleanup()


def _run_kernel(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.kernel
    if ctx.level == REDUCED:
        thresholds = cfg.eliminate_thresholds[
            :max(2, len(cfg.eliminate_thresholds) // 2)]
        cfg = dataclasses.replace(
            cfg, eliminate_thresholds=thresholds,
            kernel_rounds=max(1, cfg.kernel_rounds // 2),
            partition=_reduced_partition(cfg.partition))
    hetero_kernel_pass(aig, cfg, ctx.scheduler)
    return aig.cleanup()


def _run_mspf(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.mspf
    if ctx.level == REDUCED:
        cfg = dataclasses.replace(
            cfg, bdd_node_limit=max(10_000, cfg.bdd_node_limit // 4),
            partition=_reduced_partition(cfg.partition))
    mspf_pass(aig, cfg, ctx.scheduler)
    return aig.cleanup()


def _run_simresub(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.simresub
    if ctx.level == REDUCED:
        cfg = dataclasses.replace(
            cfg, pattern_words=max(1, cfg.pattern_words // 2),
            max_divisors=max(8, cfg.max_divisors // 2),
            max_pair_checks=max(50, cfg.max_pair_checks // 4),
            sat_conflict_budget=max(200, cfg.sat_conflict_budget // 4),
            partition=_reduced_partition(cfg.partition))
    simresub_pass(aig, cfg, ctx.scheduler)
    return aig.cleanup()


def _run_collapse_decomp(aig: Aig, ctx: _StageCtx) -> Aig:
    max_leaves = 8 if ctx.level == REDUCED else 10 + 2 * ctx.effort
    refactor(aig, max_leaves=max_leaves, min_gain=1)
    return aig.cleanup()


def _run_boolean_diff(aig: Aig, ctx: _StageCtx) -> Aig:
    cfg = ctx.config.boolean_difference
    if ctx.level == REDUCED:
        cfg = dataclasses.replace(
            cfg,
            max_pairs_per_node=max(4, cfg.max_pairs_per_node // 4),
            max_pairs_per_partition=max(
                100, cfg.max_pairs_per_partition // 4),
            bdd_node_limit=max(10_000, cfg.bdd_node_limit // 4),
            partition=_reduced_partition(cfg.partition))
    boolean_difference_pass(aig, cfg, ctx.scheduler)
    return aig.cleanup()


def _run_sat_sweep(aig: Aig, ctx: _StageCtx) -> Aig:
    max_proofs = 500 if ctx.level == REDUCED else 2000
    merges = sat_sweep(aig, max_proofs=max_proofs)
    aig = aig.cleanup()
    ctx.span.set("merges", merges)
    obs.metrics().inc("sat_sweep.merges", merges)
    return aig


def _run_redundancy(aig: Aig, ctx: _StageCtx) -> Aig:
    max_checks = 50 if ctx.level == REDUCED else 200
    removed = remove_redundancies(aig, max_checks=max_checks)
    aig = aig.cleanup()
    ctx.span.set("removed", removed)
    obs.metrics().inc("redundancy.removed", removed)
    return aig


def _run_balance(aig: Aig, ctx: _StageCtx) -> Aig:
    return balance(aig)


def _stage_specs(config: FlowConfig) -> List[_StageSpec]:
    """The iteration's stage table for *config* (9 stages by default)."""
    specs = [
        _StageSpec("aig_script", _run_aig_script, snapshot="raw"),
        _StageSpec("gradient", _run_gradient),
        _StageSpec("kernel", _run_kernel),
        _StageSpec("mspf", _run_mspf),
    ]
    if config.enable_simresub:
        specs.append(_StageSpec("simresub", _run_simresub))
    specs.extend([
        _StageSpec("collapse_decomp", _run_collapse_decomp),
        _StageSpec("boolean_diff", _run_boolean_diff),
    ])
    if config.enable_sat_sweep:
        specs.append(_StageSpec("sat_sweep", _run_sat_sweep,
                                snapshot="none", depth_guard=False))
    if config.enable_redundancy_removal:
        specs.append(_StageSpec("redundancy", _run_redundancy,
                                snapshot="none", depth_guard=False))
    specs.append(_StageSpec("balance", _run_balance, snapshot="none",
                            depth_guard=False, vital=True))
    return specs


# -- the stage executor --------------------------------------------------------

@dataclass
class StageOutcome:
    """What :func:`run_stage` did; :meth:`FlowStats.record_stage` turns it
    into rows and guard events."""

    stage: str
    level: int                   #: FULL, REDUCED, or SKIP
    plan: Optional[StagePlan]    #: the deadline manager's verdict, if any
    nodes_before: int
    nodes_after: int             #: size of the network to continue with
    elapsed_s: float = 0.0
    cached: bool = False         #: replayed from the stage memo
    stored: bool = False         #: committed to the stage memo
    #: size of the network the depth guard rolled back to, if it did
    depth_rollback: Optional[int] = None
    #: the equivalence guard's counterexample, if it rolled back
    counterexample: Optional[Counterexample] = None

    @property
    def rolled_back(self) -> bool:
        return self.depth_rollback is not None \
            or self.counterexample is not None


def memoizable(config: FlowConfig) -> bool:
    """True when stage results are pure functions of (network, stage,
    knobs): no result-changing fault plan and no window timeouts."""
    chaos = config.chaos
    return config.window_timeout_s is None \
        and (chaos is None or not chaos.alters_results)


def run_stage(aig: Aig, spec: _StageSpec, config: FlowConfig, *,
              effort: int, site: str, chaos_scope: str, index: int,
              total: int, guard: Optional[StageGuard] = None,
              depth_limit: Optional[int] = None,
              memo: Optional[StageMemo] = None,
              deadline: Optional[DeadlineManager] = None,
              ) -> Tuple[Aig, StageOutcome]:
    """Run *spec* on *aig*: the only code that executes a flow stage.

    Returns the network to continue with and what the stage did.  *site*
    names the stage's chaos site, *chaos_scope* the prefix of its window
    sites, and *index* of *total* its place in the caller's stage
    sequence (a stage span attribute).  A fresh (not replayed) stage runs
    its partition windows through one
    :class:`~repro.parallel.scheduler.PartitionScheduler` built from
    *config*: its pool, window timeout and fault plan, under
    *chaos_scope*.  *aig* may be edited in place.  A reduced-effort
    stage bypasses *memo*; a replayed result still passes *guard*; a
    rolled-back result is never stored.  A skipped stage still opens its
    span, with ``level=skipped``.
    """
    plan = deadline.plan(spec.name) if deadline is not None else None
    level = FULL if spec.vital or plan is None else plan.level
    outcome = StageOutcome(spec.name, level, plan, nodes_before=aig.num_ands,
                           nodes_after=aig.num_ands)
    with obs.span(spec.name, kind="stage", stage=spec.name, effort=effort,
                  index=index, total=total,
                  level=("full", "reduced", "skipped")[level]) as span:
        if level == SKIP:
            span.set("nodes_before", aig.num_ands)
            span.set("nodes_after", aig.num_ands)
            deadline.finish(spec.name)
            return aig, outcome
        t0 = time.perf_counter()
        key: Optional[str] = None
        replay: Optional[Aig] = None
        before: Optional[Aig] = None
        if memo is not None and level == FULL:
            key = stage_cache_key(network_fingerprint(aig), spec.name,
                                  canonical_stage_config(config, spec.name),
                                  effort=effort, depth_limit=depth_limit)
            replay = memo.lookup(key)
        if replay is None and spec.snapshot != "none":
            before = aig.cleanup() if spec.snapshot == "cleanup" else aig
        span.set("nodes_before", (before or aig).num_ands)
        if replay is not None:
            # Keys ignore labels, so a replay takes the input's names.
            result = replay
            result.copy_labels(aig)
            outcome.cached = True
        else:
            scheduler = PartitionScheduler(
                pool=config.pool, window_timeout_s=config.window_timeout_s,
                chaos=config.chaos, chaos_scope=chaos_scope)
            result = spec.run(aig, _StageCtx(config, effort, level, span,
                                             scheduler))
            if spec.depth_guard and before is not None \
                    and depth_limit is not None:
                if result.depth > depth_limit:
                    result = balance(result)
                if result.depth > depth_limit and before.depth <= depth_limit:
                    result = before
                    outcome.depth_rollback = before.num_ands
            chaos = config.chaos
            if chaos is not None and result.num_pos \
                    and chaos.draw_stage(site) == "corrupt-result":
                result = result.cleanup()
                result.set_po(0, lit_not(result.pos()[0]))
                obs.metrics().inc("guard.chaos.injected", kind="stage-corrupt")
        if guard is not None:
            result, outcome.counterexample = guard.verify(result)
            if outcome.counterexample is not None:
                obs.metrics().inc("guard.rollbacks", stage=spec.name)
        outcome.nodes_after = result.num_ands
        outcome.elapsed_s = time.perf_counter() - t0
        if memo is not None and key is not None and not outcome.cached \
                and not outcome.rolled_back:
            memo.store(key, result, {
                "nodes_before": outcome.nodes_before,
                "nodes_after": result.num_ands,
                "elapsed_s": outcome.elapsed_s})
            outcome.stored = True
        span.set("nodes_after", result.num_ands)
    if deadline is not None:
        deadline.finish(spec.name)
    return result, outcome


# -- the flow ------------------------------------------------------------------

_warned_inline_timeout = False


def _warn_inline_timeout(config: FlowConfig) -> None:
    """One-time warning: ``window_timeout_s`` needs a pool."""
    global _warned_inline_timeout
    if config.window_timeout_s is None or config.pool is not None:
        return
    if _warned_inline_timeout:
        return
    _warned_inline_timeout = True
    warnings.warn(
        "FlowConfig.window_timeout_s is ignored when jobs <= 1: the inline "
        "path cannot preempt a window.  Use flow_timeout_s (the repro.guard "
        "stage budget) to bound serial runs.",
        RuntimeWarning, stacklevel=4)


def sbm_flow(aig: Aig, config: Optional[FlowConfig] = None,
             ) -> Tuple[Aig, FlowStats]:
    """Run the full SBM Boolean resynthesis script; returns a new network.

    The input network is not modified.  Under an active
    :func:`~repro.campaign.cache.cache_context` every full-effort stage is
    memoized, so rerunning an interrupted flow against the same cache
    directory replays its committed stages and finishes with the network
    an uninterrupted run produces.  :attr:`FlowStats.guard` reports
    everything the hardened execution layer did.

    With ``config.jobs != 1`` and no ``config.pool``, the flow owns one
    :class:`~repro.parallel.shared_pool.SharedProcessPool` of that width
    for the run: its workers fork once, every stage's windows (and every
    search candidate's) run on it, and it is shut down on return.
    """
    config = config or FlowConfig()
    if config.jobs == 1 or config.pool is not None:
        return _run_flow(aig, config)
    with SharedProcessPool(config.jobs) as pool:
        return _run_flow(aig, dataclasses.replace(config, pool=pool))


def _run_flow(aig: Aig, config: FlowConfig) -> Tuple[Aig, FlowStats]:
    """The flow shell: the record, chaos harvest, ``flow`` span and
    ``initial``/``final`` rows around the driver.  The record reaches obs
    even when the driver raises (an interrupted flow reports its rows)."""
    ocfg = config.orchestrate
    driver: Callable[..., Aig] = _run_waterfall
    attrs: Dict[str, Any]
    if ocfg is None:
        attrs = {"iterations": config.iterations,
                 "stages": len(_stage_specs(config)) * config.iterations}
    else:
        if config.flow_timeout_s is not None:
            raise ValueError(
                "orchestrate is incompatible with flow_timeout_s: a "
                "wall-clock budget would make the chosen ordering "
                "machine-dependent")
        if ocfg.k < 1 or ocfg.rounds < 1:
            raise ValueError("OrchestrateConfig.k and .rounds must be >= 1")
        # Imported at call time: the classic flow never loads the search.
        from repro.orchestrate.search import orchestrated_flow
        driver = orchestrated_flow
        attrs = {"orchestrate": True, "k": ocfg.k, "rounds": ocfg.rounds}
    _warn_inline_timeout(config)
    chaos = config.chaos
    chaos_mark = len(chaos.injected) if chaos is not None else 0
    stats = FlowStats(guard=GuardReport(
        budget_s=config.flow_timeout_s,
        chaos_seed=chaos.seed if chaos is not None else None))
    start = time.perf_counter()
    try:
        current = aig.cleanup()
        with obs.span("flow", kind="flow", design=aig.name, **attrs,
                      nodes_before=current.num_ands) as flow_span:
            stats.record("initial", current.num_ands)
            depth_limit = None
            if config.max_depth_growth is not None:
                depth_limit = max(
                    1, int(current.depth * config.max_depth_growth))
            best = driver(current, config, stats, depth_limit)
            stats.record("final", best.num_ands)
            flow_span.set("nodes_after", best.num_ands)
    finally:
        stats.runtime_s = time.perf_counter() - start
        if chaos is not None:
            stats.guard.faults.extend(chaos.injected_since(chaos_mark))
        obs.record_flow_stats(stats)
    return best, stats


def check_interrupt(config: FlowConfig, stats: FlowStats, index: int,
                    stage: str, iteration: int) -> None:
    """Both drivers' interrupt check, run after each recorded stage.

    *index* is the stage's position in the flow record (for the waterfall,
    its global stage index).  When the fault plan interrupts there, record
    an ``interrupted`` guard event and raise :class:`ChaosInterrupt`; a
    rerun against the same cache replays what the memo committed.
    """
    chaos = config.chaos
    if chaos is not None and chaos.should_interrupt(index):
        stats.guard.add("interrupted", stage, iteration, stage_index=index)
        raise ChaosInterrupt(index)


def _run_waterfall(current: Aig, config: FlowConfig, stats: FlowStats,
                   depth_limit: Optional[int]) -> Aig:
    """The Section V-A waterfall driver; returns the smallest network."""
    specs = _stage_specs(config)
    per_iter = len(specs)
    total = per_iter * config.iterations
    best = current
    deadline = DeadlineManager(config.flow_timeout_s, total)
    # One pass never revisits a (network, stage, effort) key, so the
    # memo only pays off against a cache a later run can replay.
    cache = active_cache()
    memo = StageMemo(cache) \
        if cache is not None and memoizable(config) else None
    guard = StageGuard(current.cleanup()) if config.verify_each_step else None
    for iteration in range(config.iterations):
        effort = iteration + 1
        with obs.span(f"iteration[{effort}]", kind="iteration",
                      effort=effort,
                      nodes_before=current.num_ands) as it_span:
            for pos, spec in enumerate(specs):
                index = iteration * per_iter + pos
                name = spec.name
                current, outcome = run_stage(
                    current, spec, config, effort=effort,
                    site=f"stage:{index}:{name}",
                    chaos_scope=f"it{effort}:{name}", index=index,
                    total=total, guard=guard, depth_limit=depth_limit,
                    memo=memo, deadline=deadline)
                stats.record_stage(outcome, str(effort), iteration)
                check_interrupt(config, stats, index, name, iteration)
            it_span.set("nodes_after", current.num_ands)
        if current.num_ands < best.num_ands:
            best = current.cleanup()
    return best
