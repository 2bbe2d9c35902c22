"""Cross-run campaign orchestration with a persistent result cache.

``repro.campaign`` runs many (benchmark × FlowConfig) jobs as one batch:

* :mod:`repro.campaign.runner` — the orchestrator: one shared
  :class:`~repro.parallel.shared_pool.SharedProcessPool` for every flow
  (work stealing across benchmarks), one obs scope per job adopted in
  deterministic job order, within-campaign dedup of identical jobs;
* :mod:`repro.campaign.cache` — the crash-safe content-addressed result
  cache keyed by SHA-256 of (network, semantic config, code version);
  warm hits decode to networks bit-identical to the cold run.  Its
  ``stage`` slot backs the :class:`StageMemo` every flow stage consults;
* :mod:`repro.campaign.suite` — TOML suite files describing campaigns;
* :mod:`repro.campaign.shard` — deterministic shard planner splitting a
  suite across fleet workers (``--shard i/N``), by stable cache-key hash
  or a history-seeded cost model;
* :mod:`repro.campaign.sync` — cache pack/merge: byte-reproducible
  archives of a cache directory with manifest digests, merged back with
  conflict detection so the fleet's combined cache equals a single
  worker's.

CLI: ``python -m repro campaign <suite.toml | benchmark...>
--cache-dir DIR --jobs N --shard i/N --report-json PATH`` and
``python -m repro cache pack|merge``.
"""

from repro.campaign.cache import (
    CacheEntry,
    ResultCache,
    StageEntry,
    StageMemo,
    active_cache,
    cache_context,
    cached_sbm_flow,
    canonical_digest,
    canonical_flow_config,
    canonical_stage_config,
    flow_cache_key,
    network_fingerprint,
    stage_cache_key,
)
from repro.campaign.runner import (
    CampaignJob,
    CampaignReport,
    JobResult,
    run_campaign,
)
from repro.campaign.shard import (
    ShardPlan,
    ShardSpec,
    plan_shards,
    shard_costs_from_history,
    shard_token,
)
from repro.campaign.suite import jobs_from_benchmarks, load_suite
from repro.campaign.sync import (
    CacheMergeConflict,
    MergeReport,
    cache_inventory,
    entry_payload_digest,
    merge_cache,
    pack_cache,
)

__all__ = [
    "CacheEntry",
    "CacheMergeConflict",
    "CampaignJob",
    "CampaignReport",
    "JobResult",
    "MergeReport",
    "ResultCache",
    "ShardPlan",
    "ShardSpec",
    "StageEntry",
    "StageMemo",
    "active_cache",
    "cache_context",
    "cache_inventory",
    "cached_sbm_flow",
    "canonical_digest",
    "canonical_flow_config",
    "canonical_stage_config",
    "entry_payload_digest",
    "flow_cache_key",
    "jobs_from_benchmarks",
    "load_suite",
    "merge_cache",
    "network_fingerprint",
    "pack_cache",
    "plan_shards",
    "run_campaign",
    "shard_costs_from_history",
    "shard_token",
    "stage_cache_key",
]
