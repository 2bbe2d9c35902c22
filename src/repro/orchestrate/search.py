"""The pass-ordering search: rounds of K candidate stage sequences.

``orchestrated_flow`` replaces the fixed stage waterfall of
:func:`repro.sbm.flow.sbm_flow` with a deterministic search:

1. each **round** asks the :class:`~repro.orchestrate.bandit
   .TransitionBandit` for K candidate sequences over the movable (non-
   vital) stages of the :func:`~repro.sbm.flow._stage_specs` table —
   vital stages stay pinned at the tail in table order;
2. every candidate is evaluated from the same starting network —
   candidates are **pure functions** of (input network, sequence,
   config), so they may run concurrently in threads (engine partition
   windows still go through the flow's one process pool, ``config.pool``,
   which :func:`~repro.sbm.flow.sbm_flow` owns for a ``-j N`` run) without
   changing any result;
3. each stage of a candidate runs through :func:`repro.sbm.flow
   .run_stage`, the same executor as the waterfall, which first consults
   the :class:`~repro.campaign.cache.StageMemo`: a hit returns the cached
   output network instantly, a miss runs the stage and commits the
   result, so shared prefixes across candidates/rounds/campaigns are
   computed exactly once;
4. the **winner** (lowest objective; node count by default, pluggable
   for the future cost-generic work) seeds the next round, and every
   candidate's per-stage node gains train the bandit.

Determinism contract: with a fixed ``OrchestrateConfig.seed`` the chosen
orderings, the winner network, and the final ``FlowStats`` are identical
for every ``jobs``/``threads`` value and for cold vs memo-warm runs —
the same warm == cold property the flow-level campaign cache relies on.

``flow_timeout_s`` is rejected with ``ValueError``: a wall-clock budget
would make the winner depend on machine speed.  A result-changing fault
plan and ``window_timeout_s`` are allowed but disable the memo — faulty
or timing-dependent stage results must never be committed.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.aig.aig import Aig
from repro.campaign.cache import StageMemo, active_cache
from repro.guard.stage_guard import GuardReport, StageGuard
from repro.orchestrate.bandit import TransitionBandit
from repro.parallel.window_io import CompactAig
from repro.sbm.config import FlowConfig, OrchestrateConfig
from repro.sbm.flow import FlowStats, _stage_specs, memoizable, run_stage

#: Pluggable candidate objective: lower is better.  The default is AIG
#: node count — the paper's metric; the cost-generic ROADMAP item plugs
#: depth/switching/mapped costs in here.
Objective = Callable[[Aig], float]


def _node_count(aig: Aig) -> float:
    return float(aig.num_ands)


@dataclasses.dataclass
class CandidateOutcome:
    """One evaluated candidate ordering (everything the round needs)."""

    index: int
    sequence: List[str]
    network: CompactAig
    score: float
    #: per-stage rows: name, nodes_before/after, elapsed_s, cached flag
    rows: List[Dict[str, Any]]
    #: the obs scope the candidate recorded into, adopted at round close
    scope: obs.Scope

    @property
    def gains(self) -> List[int]:
        """Per-stage node gains, the bandit's training signal."""
        return [row["nodes_before"] - row["nodes_after"]
                for row in self.rows]

    @property
    def cached_stages(self) -> int:
        return sum(1 for row in self.rows if row["cached"])

    @property
    def rollbacks(self) -> int:
        return sum(1 for row in self.rows if row["rolled_back"])


def _evaluate_candidate(base: CompactAig, sequence: Sequence[str],
                        specs_by_name: Dict[str, Any],
                        config: FlowConfig,
                        memo: Optional[StageMemo],
                        depth_limit: Optional[int],
                        objective: Objective,
                        round_index: int, cand_index: int,
                        scope: obs.Scope) -> CandidateOutcome:
    """Run one candidate ordering on a private copy of *base*.

    Pure function of its arguments: telemetry goes to the candidate's own
    obs *scope* (one tracer span stack per thread; the round adopts every
    scope in candidate order), chaos draws key on deterministic ``orch:``
    sites, and every mutation happens on networks this call owns.
    """
    with scope, obs.span(f"candidate[{cand_index}]", kind="candidate",
                         round=round_index, candidate=cand_index,
                         ordering=">".join(sequence),
                         nodes_before=base.num_ands) as span:
        net = base.to_aig()
        guard = StageGuard(net.cleanup()) if config.verify_each_step else None
        rows: List[Dict[str, Any]] = []
        for pos, name in enumerate(sequence):
            site = f"orch:r{round_index}:c{cand_index}:{pos}:{name}"
            outcome = run_stage(net, specs_by_name[name], config, effort=1,
                                site=site, chaos_scope=site, index=pos,
                                total=len(sequence), guard=guard,
                                depth_limit=depth_limit, memo=memo)
            net = outcome.network
            rows.append({"name": name,
                         "nodes_before": outcome.nodes_before,
                         "nodes_after": net.num_ands,
                         "elapsed_s": outcome.elapsed_s,
                         "cached": outcome.cached,
                         "rolled_back": outcome.rolled_back})
        span.set("nodes_after", net.num_ands)
        return CandidateOutcome(index=cand_index, sequence=list(sequence),
                                network=CompactAig.from_aig(net),
                                score=objective(net), rows=rows, scope=scope)


def orchestrated_flow(aig: Aig, config: FlowConfig,
                      objective: Optional[Objective] = None,
                      ) -> Tuple[Aig, Any]:
    """Run the pass-ordering search; returns ``(best network, FlowStats)``.

    Drop-in for :func:`repro.sbm.flow.sbm_flow` when
    ``config.orchestrate`` is set (``sbm_flow`` dispatches here itself,
    after setting up the run's pool).  The search creates no pool: windows
    run on ``config.pool``, or inline without one.
    ``config.iterations`` is superseded by ``OrchestrateConfig.rounds``:
    the search rounds *are* the flow's iteration structure.
    """
    ocfg = config.orchestrate or OrchestrateConfig()
    if config.flow_timeout_s is not None:
        raise ValueError(
            "orchestrate is incompatible with flow_timeout_s: a wall-clock "
            "budget would make the chosen ordering machine-dependent")
    if ocfg.k < 1 or ocfg.rounds < 1:
        raise ValueError("OrchestrateConfig.k and .rounds must be >= 1")
    objective = objective or _node_count

    specs = _stage_specs(config)
    specs_by_name = {spec.name: spec for spec in specs}
    movable = [spec.name for spec in specs if not spec.vital]
    pinned = [spec.name for spec in specs if spec.vital]

    # The memo must only ever hold pure (network, stage, config) -> network
    # facts: result-changing chaos faults and window timeouts break that.
    memo = StageMemo(cache=active_cache()) if memoizable(config) else None

    pool = config.pool
    threads = ocfg.threads if ocfg.threads else (
        min(ocfg.k, pool.workers) if pool is not None else 1)
    threads = max(1, threads)

    chaos = config.chaos
    chaos_mark = len(chaos.injected) if chaos is not None else 0
    stats = FlowStats()
    stats.guard = report = GuardReport(
        chaos_seed=chaos.seed if chaos is not None else None)
    bandit = TransitionBandit(movable, seed=ocfg.seed,
                              explore=ocfg.explore,
                              min_stages=ocfg.min_stages)
    start = time.perf_counter()
    try:
        current = aig.cleanup()
        with obs.span("flow", kind="flow", design=aig.name,
                      orchestrate=True, k=ocfg.k, rounds=ocfg.rounds,
                      nodes_before=current.num_ands) as flow_span:
            stats.record("initial", current.num_ands)
            depth_limit = None
            if config.max_depth_growth is not None:
                depth_limit = max(
                    1, int(current.depth * config.max_depth_growth))
            best = current
            best_score = objective(best)
            incumbent = list(movable)
            rounds_doc: List[Dict[str, Any]] = []
            for round_index in range(ocfg.rounds):
                sequences = [candidate + pinned for candidate in
                             bandit.propose(ocfg.k, round_index, incumbent)]
                base = CompactAig.from_aig(current)
                with obs.span(f"ordering[{round_index + 1}]",
                              kind="ordering", round=round_index,
                              k=len(sequences),
                              incumbent=">".join(incumbent + pinned),
                              nodes_before=current.num_ands) as round_span:
                    outcomes = _evaluate_round(
                        base, sequences, specs_by_name, config, memo,
                        depth_limit, objective, round_index, threads)
                    winner = min(outcomes,
                                 key=lambda o: (o.score, o.index))
                    # Every candidate's spans, but only the winner's
                    # metrics and pass reports: they shaped the network.
                    scope = obs.current()
                    for outcome in outcomes:
                        scope.adopt(outcome.scope, reports=outcome is winner,
                                    winner=outcome is winner)
                    round_span.set("nodes_after", winner.network.num_ands)
                    round_span.set("ordering", ">".join(winner.sequence))
                    round_span.set("cached", winner.cached_stages)
                for outcome in outcomes:
                    bandit.update(outcome.sequence, outcome.gains)
                    for row in outcome.rows:
                        if row["rolled_back"]:
                            report.add("rolled_back", row["name"],
                                       round_index,
                                       candidate=outcome.index)
                current = winner.network.to_aig()
                for row in winner.rows:
                    stats.record(f"{row['name']}[r{round_index + 1}]",
                                 row["nodes_after"], row["elapsed_s"])
                if winner.score < best_score:
                    best = current.cleanup()
                    best_score = winner.score
                incumbent = [name for name in winner.sequence
                             if name not in pinned]
                rounds_doc.append({
                    "round": round_index,
                    "winner": winner.index,
                    "ordering": winner.sequence,
                    "nodes": winner.network.num_ands,
                    "candidates": [
                        {"sequence": o.sequence,
                         "nodes": o.network.num_ands,
                         "score": o.score,
                         "cached_stages": o.cached_stages,
                         "rollbacks": o.rollbacks}
                        for o in outcomes],
                })
            stats.runtime_s = time.perf_counter() - start
            stats.record("final", best.num_ands)
            stats.orchestrate = {
                "k": ocfg.k,
                "rounds": rounds_doc,
                "chosen": rounds_doc[-1]["ordering"] if rounds_doc else [],
                "stage_memo": memo.stats() if memo is not None else None,
            }
            flow_span.set("nodes_after", best.num_ands)
    finally:
        if chaos is not None:
            report.faults.extend(chaos.injected_since(chaos_mark))
        obs.record_guard_report(report)
    obs.record_flow_stats(stats)
    return best, stats


def _evaluate_round(base: CompactAig, sequences: List[List[str]],
                    specs_by_name: Dict[str, Any], config: FlowConfig,
                    memo: Optional[StageMemo],
                    depth_limit: Optional[int], objective: Objective,
                    round_index: int, threads: int,
                    ) -> List[CandidateOutcome]:
    """Evaluate a round's candidates (serial or thread-parallel).

    Results come back in candidate order regardless of completion order,
    so everything downstream (winner pick, bandit updates, reports, the
    adopted candidate scopes) is schedule-independent.
    """
    parent = obs.current()
    work = [(seq, i, parent.child(stream=False))
            for i, seq in enumerate(sequences)]
    if threads <= 1 or len(sequences) <= 1:
        return [_evaluate_candidate(base, seq, specs_by_name, config, memo,
                                    depth_limit, objective, round_index, i,
                                    scope)
                for seq, i, scope in work]
    with ThreadPoolExecutor(max_workers=min(threads, len(sequences)),
                            thread_name_prefix="orchestrate") as executor:
        futures = [executor.submit(_evaluate_candidate, base, seq,
                                   specs_by_name, config, memo, depth_limit,
                                   objective, round_index, i, scope)
                   for seq, i, scope in work]
        return [future.result() for future in futures]
