"""Deterministic shard planning for campaign fleets.

A sharded nightly splits one suite across N CI workers.  Each worker
computes the plan **independently** — there is no coordinator — so the
plan must be a pure function of (jobs, shard count, optional cost
model), never of wall time, worker identity, or Python hashing:

* the **hash planner** (default) assigns every job by a stable SHA-256
  token: the job's flow cache key when it has one (uncacheable jobs fall
  back to a digest of their name/benchmark), reduced mod N.  Any two
  workers given the same suite file derive the same disjoint cover; no
  shared state is needed;
* the **cost planner** (opt in via a cost table, typically seeded from
  the :mod:`repro.obs.history` store) groups jobs by token, sorts groups
  by descending estimated runtime, and greedily assigns each to the
  currently lightest shard (longest-processing-time heuristic) — shards
  finish in comparable wall time instead of comparable job counts.
  Workers must share the same cost table (the same history DB snapshot)
  to derive the same plan; CI achieves this by restoring one cached DB.

Jobs that share a cache key always land in the same shard — both
planners key on the token — so within-campaign dedup behaves exactly as
in an unsharded run and the fleet's combined report equals the
single-worker one row for row.

The **disjoint-cover invariant**: every job is assigned to exactly one
shard, for every N.  Both planners guarantee it by construction
(:func:`plan_shards` assigns each position once); the merge layer
(:mod:`repro.campaign.sync`) then guarantees the combined cache equals
the single-worker cache key for key.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.cache import canonical_digest, flow_cache_key
from repro.campaign.runner import CampaignJob

#: Outcomes whose flow runtimes were actually measured (mirrors
#: ``repro.obs.history._COLD_OUTCOMES`` — a hit replays the cold stats).
_COLD_OUTCOMES = ("miss", "uncached")


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of a fleet: shard *index* of *count*."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``i/N`` (e.g. ``--shard 1/3``)."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"expected shard spec 'i/N', got {text!r}")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"expected shard spec 'i/N' with integers, got {text!r}"
            ) from None
        return cls(index=index, count=count)

    @property
    def label(self) -> str:
        return f"{self.index}/{self.count}"


def shard_token(job: CampaignJob) -> str:
    """The stable SHA-256 token that places *job* on a shard.

    Cacheable jobs use their flow cache key, so the shard boundary is
    drawn on the exact identity the cache and the dedup pass use; jobs
    without a key (chaos/timeouts make them uncacheable, or the
    benchmark fails to resolve) fall back to a digest of their labels —
    still deterministic across processes and ``PYTHONHASHSEED`` values,
    because every byte comes from SHA-256 over canonical JSON.
    """
    key: Optional[str] = None
    try:
        key = flow_cache_key(job.resolve_network(), job.config)
    except Exception:
        key = None
    if key is None:
        key = canonical_digest({"shard-fallback": [job.name, job.benchmark]})
    return key


@dataclasses.dataclass
class ShardPlan:
    """A complete assignment of one job list onto *count* shards."""

    count: int
    planner: str                 #: ``hash`` | ``cost``
    names: List[str]             #: job labels, in suite order
    tokens: List[str]            #: per-job shard tokens (parallel to names)
    assignments: List[int]       #: per-job shard index (parallel to names)
    estimates: List[float]       #: per-job cost estimate (1.0 under hash)

    def positions(self, index: int) -> List[int]:
        """Job positions (suite order) assigned to shard *index*."""
        return [i for i, shard in enumerate(self.assignments)
                if shard == index]

    def select(self, jobs: Sequence[CampaignJob],
               index: int) -> List[CampaignJob]:
        """The sub-list of *jobs* this shard runs, in suite order."""
        if len(jobs) != len(self.assignments):
            raise ValueError(
                f"plan covers {len(self.assignments)} jobs, got {len(jobs)}")
        return [jobs[i] for i in self.positions(index)]

    def loads(self) -> List[float]:
        """Estimated total cost per shard (suite seconds under ``cost``)."""
        totals = [0.0] * self.count
        for shard, estimate in zip(self.assignments, self.estimates):
            totals[shard] += estimate
        return totals

    def tag(self, index: int) -> Dict[str, Any]:
        """The JSON-safe shard tag recorded on the campaign report."""
        return {
            "index": index,
            "count": self.count,
            "planner": self.planner,
            "jobs": [self.names[i] for i in self.positions(index)],
            "total_jobs": len(self.names),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "planner": self.planner,
            "assignments": dict(zip(self.names, self.assignments)),
            "loads": self.loads(),
        }


def plan_shards(jobs: Sequence[CampaignJob], count: int,
                costs: Optional[Dict[str, float]] = None) -> ShardPlan:
    """Assign every job in *jobs* to exactly one of *count* shards.

    Without *costs* the hash planner applies: shard = token mod *count*.
    With *costs* (benchmark name → estimated seconds, see
    :func:`shard_costs_from_history`) the cost planner applies: jobs are
    grouped by token (same-key jobs must stay together for dedup and
    report equality), groups sorted by descending cost then token, and
    each group goes to the currently lightest shard, ties broken by the
    lowest shard index.  Both are pure functions of their inputs.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    names = [job.name for job in jobs]
    tokens = [shard_token(job) for job in jobs]
    if costs is None:
        assignments = [int(token[:16], 16) % count for token in tokens]
        estimates = [1.0] * len(jobs)
        return ShardPlan(count=count, planner="hash", names=names,
                         tokens=tokens, assignments=assignments,
                         estimates=estimates)
    known = sorted(costs.values())
    default = known[len(known) // 2] if known else 1.0
    estimates = [max(float(costs.get(job.benchmark, default)), 1e-6)
                 for job in jobs]
    groups: Dict[str, List[int]] = {}
    for position, token in enumerate(tokens):
        groups.setdefault(token, []).append(position)
    ordered = sorted(
        groups.items(),
        key=lambda item: (-sum(estimates[p] for p in item[1]), item[0]))
    loads = [0.0] * count
    assignments = [0] * len(jobs)
    for _token, positions in ordered:
        target = min(range(count), key=lambda shard: (loads[shard], shard))
        for position in positions:
            assignments[position] = target
            loads[target] += estimates[position]
    return ShardPlan(count=count, planner="cost", names=names,
                     tokens=tokens, assignments=assignments,
                     estimates=estimates)


def shard_costs_from_history(db_path: str,
                             window: int = 20) -> Dict[str, float]:
    """Median cold flow runtime per benchmark from a history store.

    Reads the :mod:`repro.obs.history` ``jobs`` table over the newest
    *window* runs, considering only cold outcomes (a hit replays the
    cold run's stats — its timing is not this fleet's).  Returns an
    empty dict when the store is missing or empty, which makes the cost
    planner fall back to uniform estimates (still deterministic).
    """
    import os
    import sqlite3
    import statistics
    if not os.path.exists(db_path):
        return {}
    samples: Dict[str, List[float]] = {}
    try:
        conn = sqlite3.connect(db_path)
        try:
            marks = ",".join("?" * len(_COLD_OUTCOMES))
            rows = conn.execute(
                f"SELECT benchmark, flow_runtime_s FROM jobs"
                f" WHERE outcome IN ({marks}) AND run_id IN"
                f" (SELECT run_id FROM runs ORDER BY run_id DESC LIMIT ?)",
                (*_COLD_OUTCOMES, window)).fetchall()
        finally:
            conn.close()
    except sqlite3.Error:
        return {}
    for benchmark, runtime in rows:
        samples.setdefault(str(benchmark), []).append(float(runtime))
    return {benchmark: float(statistics.median(values))
            for benchmark, values in samples.items()}
