"""Batch orchestration of many (benchmark × FlowConfig) jobs.

The runner turns a list of :class:`CampaignJob` into one
:class:`CampaignReport`:

* **one shared worker pool** — every flow gets the campaign's
  :class:`~repro.parallel.shared_pool.SharedProcessPool` injected via
  ``FlowConfig.pool``, so partition windows of *all* benchmarks compete
  for the same worker slots (work stealing) instead of each flow paying
  for a private pool;
* **content-addressed caching** — jobs whose ``(network, config, code)``
  key is already on disk return the stored network without running
  (see :mod:`repro.campaign.cache`); jobs *within* one campaign that share
  a key are computed once and the rest marked ``dedup``;
* **one obs scope per job** — each job records into its own
  :class:`repro.obs.Scope` (its own span stack, registry and report
  lists), and the campaign adopts the scopes in **job order**: a
  ``campaign`` span holds one ``job`` subtree per job that ran, and a
  report from a concurrent campaign lists flows, passes and spans in the
  same order as a serial one.  Job spans stream to the progress bus while
  the job runs.

Determinism contract: outcomes (result networks, node counts) are
independent of ``workers``/``threads``; only timing and the
stolen-window/pool telemetry vary.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro import obs
from repro.aig.aig import Aig
from repro.campaign.cache import ResultCache, cached_sbm_flow, flow_cache_key
from repro.parallel.shared_pool import SharedProcessPool
from repro.parallel.stats import aggregate_reports
from repro.sbm.config import FlowConfig


@dataclasses.dataclass
class CampaignJob:
    """One unit of campaign work: a network plus the flow to run on it."""

    name: str                     #: display/report label, unique per campaign
    benchmark: str                #: registry name (``repro.bench.registry``)
    config: FlowConfig = dataclasses.field(default_factory=FlowConfig)
    scaled: bool = True           #: registry scale (DESIGN.md §6)
    network: Optional[Aig] = None  #: explicit input; overrides *benchmark*

    def resolve_network(self) -> Aig:
        """The input AIG: the explicit network or the registry benchmark."""
        if self.network is not None:
            return self.network
        from repro.bench.registry import get_benchmark
        return get_benchmark(self.benchmark, scaled=self.scaled)


@dataclasses.dataclass
class JobResult:
    """Outcome of one campaign job."""

    name: str
    benchmark: str
    #: ``hit`` | ``miss`` | ``dedup`` | ``uncached`` | ``error``
    outcome: str
    key: Optional[str] = None
    wall_s: float = 0.0            #: campaign-side wall time for this job
    flow_runtime_s: float = 0.0    #: the flow's own runtime (0 on a hit)
    nodes_before: int = 0
    nodes_after: int = 0
    stolen_windows: int = 0
    pool_restarts: int = 0
    faults: int = 0                #: chaos faults injected into this job
    #: per-engine applied node gain on this benchmark (cold runs only; a
    #: cache hit replays the network, not the window telemetry)
    engine_gain: Dict[str, int] = dataclasses.field(default_factory=dict)
    error: Optional[str] = None
    network: Optional[Aig] = None
    stats: Optional[Dict[str, Any]] = None  #: ``FlowStats.to_dict()`` shape

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe row for the run report's ``jobs_detail`` list."""
        row = {
            "name": self.name,
            "benchmark": self.benchmark,
            "outcome": self.outcome,
            "key": self.key,
            "wall_s": self.wall_s,
            "flow_runtime_s": self.flow_runtime_s,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "stolen_windows": self.stolen_windows,
            "pool_restarts": self.pool_restarts,
            "faults": self.faults,
            "engine_gain": dict(self.engine_gain),
            "error": self.error,
        }
        # Per-stage sizes/times feed the telemetry history store; a cache
        # hit replays the cold run's stats dict, so hits carry them too.
        if self.stats and self.stats.get("stages"):
            row["stages"] = [
                {"name": s.get("name"), "size": s.get("size"),
                 "elapsed_s": s.get("elapsed_s", 0.0)}
                for s in self.stats["stages"]]
        return row


@dataclasses.dataclass
class CampaignReport:
    """Aggregate of one campaign run: counters, telemetry, per-job rows."""

    suite: str = "adhoc"
    cache_dir: Optional[str] = None
    #: fleet shard tag (``repro.campaign.shard``): ``{"index", "count",
    #: "planner", "jobs", "total_jobs"}``; ``None`` for unsharded runs
    shard: Optional[Dict[str, Any]] = None
    results: List[JobResult] = dataclasses.field(default_factory=list)
    hits: int = 0
    misses: int = 0
    deduped: int = 0
    uncached: int = 0
    errors: int = 0
    corrupt_entries: int = 0
    #: per-slot cache counters (``flow`` = whole-flow entries, ``stage`` =
    #: the per-stage memo every flow uses), from :meth:`repro.campaign.cache
    #: .ResultCache.slot_stats`; ``None`` without a cache
    cache_slots: Optional[Dict[str, Dict[str, int]]] = None
    stolen_windows: int = 0
    pool_rebuilds: int = 0
    pool_restarts: int = 0
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    worker_wall_s: float = 0.0
    #: :func:`repro.parallel.stats.aggregate_reports` over every parallel
    #: pass of every job — summed across the whole campaign, never just the
    #: last flow's report
    parallel: Optional[Dict[str, Any]] = None

    @property
    def jobs(self) -> int:
        return len(self.results)

    def result(self, name: str) -> JobResult:
        """The job row labelled *name* (raises ``KeyError`` when absent)."""
        for row in self.results:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        """The run report's ``campaign`` section (schema v3)."""
        return {
            "suite": self.suite,
            "cache_dir": self.cache_dir,
            "shard": self.shard,
            "jobs": self.jobs,
            "hits": self.hits,
            "misses": self.misses,
            "deduped": self.deduped,
            "uncached": self.uncached,
            "errors": self.errors,
            "corrupt_entries": self.corrupt_entries,
            "cache_slots": self.cache_slots,
            "stolen_windows": self.stolen_windows,
            "pool_rebuilds": self.pool_rebuilds,
            "pool_restarts": self.pool_restarts,
            "elapsed_s": self.elapsed_s,
            "cpu_s": self.cpu_s,
            "worker_wall_s": self.worker_wall_s,
            "parallel": self.parallel,
            "jobs_detail": [row.to_dict() for row in self.results],
        }


def _run_one(job: CampaignJob, cache: Optional[ResultCache],
             pool: Optional[SharedProcessPool],
             scope: obs.Scope) -> JobResult:
    """Execute one job on the current thread in *scope*; never raises."""
    if pool is not None:
        pool.bind(job.name)
    start = time.perf_counter()
    result = JobResult(name=job.name, benchmark=job.benchmark,
                       outcome="error")
    with scope, obs.span(f"job:{job.name}", kind="job", name=job.name,
                         benchmark=job.benchmark) as span:
        try:
            network = job.resolve_network()
            result.nodes_before = network.num_ands
            config = job.config
            if pool is not None and config.pool is not pool:
                config = dataclasses.replace(config, pool=pool)
            optimized, stats, hit, key = cached_sbm_flow(network, config,
                                                         cache)
            result.key = key
            result.network = optimized
            result.nodes_after = optimized.num_ands
            if hit:
                result.outcome = "hit"
                result.stats = stats                  # the cold run's dict
            else:
                result.outcome = "miss" if key is not None else "uncached"
                result.stats = stats.to_dict()
                result.flow_runtime_s = stats.runtime_s
                if stats.guard is not None:
                    result.faults = len(stats.guard.faults)
        except Exception as exc:  # a failed job must not sink the campaign
            result.error = f"{type(exc).__name__}: {exc}"
        span.set("outcome", result.outcome)
        span.set("nodes_before", result.nodes_before)
        span.set("nodes_after", result.nodes_after)
    result.wall_s = time.perf_counter() - start
    for parallel in scope.parallel_reports:
        result.pool_restarts += parallel.pool_restarts
        if parallel.total_gain:
            result.engine_gain[parallel.engine] = \
                result.engine_gain.get(parallel.engine, 0) \
                + parallel.total_gain
    if pool is not None:
        result.stolen_windows = pool.stolen_windows(job.name)
    return result


def run_campaign(jobs: List[CampaignJob],
                 cache_dir: Optional[str] = None,
                 workers: Optional[int] = 1,
                 threads: Optional[int] = None,
                 suite: str = "adhoc",
                 history_db: Optional[str] = None,
                 shard: Optional[Dict[str, Any]] = None) -> CampaignReport:
    """Run every job; returns the campaign report (and registers it).

    Parameters
    ----------
    jobs:
        The campaign's job list; ``name`` labels must be unique.
    cache_dir:
        Root of the persistent result cache; ``None`` disables caching.
    workers:
        Width of the shared process pool.  ``1`` (default) runs every flow
        on the inline serial path with no pool; ``None``/``0`` means
        ``os.cpu_count()``.
    threads:
        Concurrent job threads.  Defaults to the pool width (work
        stealing needs overlapping jobs) or ``1`` without a pool.
    suite:
        Label recorded in the report (the suite file name, usually).
    history_db:
        Path of a :mod:`repro.obs.history` SQLite store; when given, the
        finished report is ingested into it (a history failure is reported
        on stderr but never sinks the campaign).
    shard:
        Fleet shard tag (:meth:`repro.campaign.shard.ShardPlan.tag`);
        recorded verbatim on the report and in the history store so a
        shard's rows are distinguishable from a full run's.
    """
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate campaign job names: {sorted(names)}")
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    pool_width = workers if workers is not None else 0
    pool = SharedProcessPool(pool_width) if pool_width != 1 else None
    if threads is None or threads <= 0:
        threads = pool.workers if pool is not None else 1
    threads = max(1, min(threads, len(jobs) or 1))

    report = CampaignReport(suite=suite, cache_dir=cache_dir, shard=shard)
    start_wall = time.perf_counter()
    start_cpu = time.process_time()
    all_parallel = []
    with obs.span("campaign", kind="campaign", suite=suite,
                  jobs=len(jobs)) as campaign_span:
        try:
            # Within-campaign dedup: jobs sharing a cache key run once.
            # Keys are resolved up front (cheap: hash of the generated
            # network) so leaders and followers are fixed regardless of
            # thread timing.
            leader_of: Dict[str, CampaignJob] = {}
            followers: Dict[int, str] = {}       # job index -> leader name
            for index, job in enumerate(jobs):
                try:
                    key = flow_cache_key(job.resolve_network(), job.config)
                except Exception:
                    # An unresolvable benchmark must not sink the campaign;
                    # _run_one reports it as an "error" row like any other
                    # per-job failure.
                    continue
                if key is None:
                    continue
                if key in leader_of:
                    followers[index] = leader_of[key].name
                else:
                    leader_of[key] = job
            runnable = [job for index, job in enumerate(jobs)
                        if index not in followers]

            # Each job records into its own scope; adopting the scopes as
            # the jobs finish, in job order, gives a concurrent campaign a
            # serial one's trace and report.
            parent = obs.current()
            scopes = {job.name: parent.child() for job in runnable}

            def run(job: CampaignJob) -> JobResult:
                return _run_one(job, cache, pool, scopes[job.name])

            outcomes: Dict[str, JobResult] = {}
            with ThreadPoolExecutor(max_workers=threads) as executor:
                rows = executor.map(run, runnable) if threads > 1 \
                    else map(run, runnable)
                for job, row in zip(runnable, rows):
                    outcomes[job.name] = row
                    all_parallel.extend(scopes[job.name].parallel_reports)
                    parent.adopt(scopes[job.name])

            for index, job in enumerate(jobs):
                if index in followers:
                    leader = outcomes[followers[index]]
                    row = dataclasses.replace(
                        leader, name=job.name, benchmark=job.benchmark,
                        outcome="dedup", wall_s=0.0, flow_runtime_s=0.0,
                        stolen_windows=0, pool_restarts=0, faults=0)
                    report.results.append(row)
                else:
                    report.results.append(outcomes[job.name])
        finally:
            if pool is not None:
                report.pool_rebuilds = pool.rebuilds
                report.stolen_windows = pool.total_stolen
                pool.shutdown()

        for row in report.results:
            counter = {"hit": "hits", "miss": "misses", "dedup": "deduped",
                       "uncached": "uncached", "error": "errors"}[row.outcome]
            setattr(report, counter, getattr(report, counter) + 1)
            report.pool_restarts += row.pool_restarts
        if cache is not None:
            report.corrupt_entries = cache.corrupt
            report.cache_slots = cache.slot_stats()
        report.elapsed_s = time.perf_counter() - start_wall
        report.cpu_s = time.process_time() - start_cpu
        if all_parallel:
            aggregate = aggregate_reports(all_parallel)
            report.parallel = aggregate
            report.worker_wall_s = float(aggregate["worker_wall_s"])
        for key in ("hits", "misses", "deduped", "uncached", "errors"):
            campaign_span.set(key, getattr(report, key))
    obs.record_campaign_report(report)
    if history_db is not None:
        # Telemetry history is best-effort bookkeeping — a locked or
        # corrupt store must not turn a finished campaign into a failure.
        try:
            from repro.obs.history import ingest_campaign_report
            ingest_campaign_report(history_db, report)
        except Exception as exc:
            import sys
            print(f"history ingest failed ({history_db}): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return report
