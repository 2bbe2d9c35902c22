"""The pass-ordering search: rounds of K candidate stage sequences.

``orchestrated_flow``, a driver of :func:`repro.sbm.flow.sbm_flow`'s flow
shell, replaces the fixed stage waterfall with a deterministic search:

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
4. the **winner** (lowest node count, the paper's metric) seeds the next
   round, and every candidate's per-stage node gains train the bandit.

Like the metrics and pass reports, the flow record takes only winners:
the waterfall's recorder writes each winner stage as a ``<stage>[rN]``
row plus its guard events; every candidate's rollbacks stay in
``FlowStats.orchestrate``.  After each recorded winner stage the search
runs the waterfall's interrupt check, with the stage's position in the
flow record as its index: ``--chaos-interrupt N`` stops a search right
after recorded stage #N, and a rerun against the same cache replays the
committed stages.

Determinism contract: with a fixed ``OrchestrateConfig.seed`` the chosen
orderings, the winner network and the ``FlowStats`` rows (names and
sizes) are identical for every ``jobs``/``threads`` value and for cold vs
memo-warm runs — the same warm == cold property the flow-level campaign
cache relies on.  Guard events record what was replayed (with
``threads > 1``, which winner stage replayed a shared one can vary).

``flow_timeout_s`` is rejected with ``ValueError``: a wall-clock budget
would make the winner depend on machine speed.  A result-changing fault
plan and ``window_timeout_s`` are allowed but disable the memo — faulty
or timing-dependent stage results must never be committed.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.aig.aig import Aig
from repro.campaign.cache import StageMemo, active_cache
from repro.guard.stage_guard import StageGuard
from repro.orchestrate.bandit import TransitionBandit
from repro.parallel.window_io import CompactAig
from repro.sbm.config import FlowConfig, OrchestrateConfig
from repro.sbm.flow import (FlowStats, StageOutcome, _stage_specs,
                            check_interrupt, memoizable, run_stage)


@dataclasses.dataclass
class CandidateOutcome:
    """One evaluated candidate ordering (everything the round needs)."""

    index: int
    sequence: List[str]
    network: CompactAig
    score: float
    #: what each stage did, in sequence order
    stages: List[StageOutcome]
    #: the obs scope the candidate recorded into, adopted at round close
    scope: obs.Scope

    @property
    def gains(self) -> List[int]:
        """Per-stage node gains, the bandit's training signal."""
        return [stage.nodes_before - stage.nodes_after
                for stage in self.stages]

    @property
    def cached_stages(self) -> int:
        return sum(1 for stage in self.stages if stage.cached)

    @property
    def rollbacks(self) -> int:
        return sum(1 for stage in self.stages if stage.rolled_back)


def _evaluate_candidate(base: CompactAig, sequence: Sequence[str],
                        specs_by_name: Dict[str, Any],
                        config: FlowConfig,
                        memo: Optional[StageMemo],
                        depth_limit: Optional[int],
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
        stages: List[StageOutcome] = []
        for pos, name in enumerate(sequence):
            site = f"orch:r{round_index}:c{cand_index}:{pos}:{name}"
            net, outcome = run_stage(net, specs_by_name[name], config,
                                     effort=1, site=site, chaos_scope=site,
                                     index=pos, total=len(sequence),
                                     guard=guard, depth_limit=depth_limit,
                                     memo=memo)
            stages.append(outcome)
        span.set("nodes_after", net.num_ands)
        return CandidateOutcome(index=cand_index, sequence=list(sequence),
                                network=CompactAig.from_aig(net),
                                score=float(net.num_ands), stages=stages,
                                scope=scope)


def orchestrated_flow(current: Aig, config: FlowConfig, stats: FlowStats,
                      depth_limit: Optional[int]) -> Aig:
    """Run the pass-ordering search on *current*; returns the best network.

    The flow shell's driver when ``config.orchestrate`` is set: it records
    each round winner's stages into *stats* and sets ``stats.orchestrate``.
    The search creates no pool: windows run on ``config.pool``, or inline.
    ``config.iterations`` is superseded by ``OrchestrateConfig.rounds``.
    """
    ocfg = config.orchestrate or OrchestrateConfig()

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

    bandit = TransitionBandit(movable, seed=ocfg.seed,
                              explore=ocfg.explore,
                              min_stages=ocfg.min_stages)
    best = current
    best_score = float(best.num_ands)
    incumbent = list(movable)
    recorded = 0  # winner stages in the flow record so far
    rounds_doc: List[Dict[str, Any]] = []
    for round_index in range(ocfg.rounds):
        sequences = [candidate + pinned for candidate in
                     bandit.propose(ocfg.k, round_index, incumbent)]
        base = CompactAig.from_aig(current)
        with obs.span(f"ordering[{round_index + 1}]", kind="ordering",
                      round=round_index, k=len(sequences),
                      incumbent=">".join(incumbent + pinned),
                      nodes_before=current.num_ands) as round_span:
            outcomes = _evaluate_round(
                base, sequences, specs_by_name, config, memo, depth_limit,
                round_index, threads)
            winner = min(outcomes, key=lambda o: (o.score, o.index))
            # Every candidate's spans, but only the winner's metrics and
            # pass reports: they shaped the network.
            scope = obs.current()
            for outcome in outcomes:
                scope.adopt(outcome.scope, reports=outcome is winner,
                            winner=outcome is winner)
            round_span.set("nodes_after", winner.network.num_ands)
            round_span.set("ordering", ">".join(winner.sequence))
            round_span.set("cached", winner.cached_stages)
        for outcome in outcomes:
            bandit.update(outcome.sequence, outcome.gains)
        # The flow record takes the winner's stages only, too.
        for stage in winner.stages:
            stats.record_stage(stage, f"r{round_index + 1}", round_index)
            check_interrupt(config, stats, recorded, stage.stage,
                            round_index)
            recorded += 1
        current = winner.network.to_aig()
        if winner.score < best_score:
            best = current.cleanup()
            best_score = winner.score
        incumbent = [name for name in winner.sequence if name not in pinned]
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
    stats.orchestrate = {
        "k": ocfg.k,
        "rounds": rounds_doc,
        "chosen": rounds_doc[-1]["ordering"] if rounds_doc else [],
        "stage_memo": memo.stats() if memo is not None else None,
    }
    return best


def _evaluate_round(base: CompactAig, sequences: List[List[str]],
                    specs_by_name: Dict[str, Any], config: FlowConfig,
                    memo: Optional[StageMemo],
                    depth_limit: Optional[int],
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
                                    depth_limit, round_index, i, scope)
                for seq, i, scope in work]
    with ThreadPoolExecutor(max_workers=min(threads, len(sequences)),
                            thread_name_prefix="orchestrate") as executor:
        futures = [executor.submit(_evaluate_candidate, base, seq,
                                   specs_by_name, config, memo, depth_limit,
                                   round_index, i, scope)
                   for seq, i, scope in work]
        return [future.result() for future in futures]
