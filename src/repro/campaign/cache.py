"""Persistent content-addressed result cache for campaign runs.

A campaign re-runs the same (benchmark, flow configuration) pairs over and
over — across CI pushes, nightly sweeps, and local experiment iterations —
and the flow is deterministic, so most of that work is recomputation.  The
cache keys each job by **content**, never by name:

    key = SHA-256( canonical network JSON
                 + canonical semantic FlowConfig
                 + code-version salt )

* The network is serialized through the :class:`~repro.parallel.window_io
  .CompactAig` layout (the byte-stable encoding the parallel windows
  use), so two structurally identical AIGs share a key regardless of how
  they were produced.
* The config canonicalization (:func:`canonical_flow_config`) allowlists
  only fields that change the *result*.  Execution-side knobs — ``jobs``,
  ``pool`` — are excluded: the parallel contract
  guarantees bit-identical results for every ``jobs`` value, so a serial
  cold run and a 8-way warm run share entries.
* :data:`CODE_VERSION` is salted in so bumping the engine version
  invalidates every stale entry at once (partial invalidation: entries
  under other salts stay untouched on disk and simply stop matching).

Runs that are **not** pure functions of (network, config) are uncacheable
and must bypass the cache entirely: chaos fault injection and wall-clock
budgets (``flow_timeout_s`` / ``window_timeout_s``) make the result depend
on timing or the fault plan.  :func:`flow_cache_key` returns ``None`` for
those, and the campaign runner reports them under ``uncached``.

Entries are committed by :func:`atomic_write_text` (temp + fsync +
rename), so a crash mid-write can never leave a half entry that later
reads as a hit; a corrupt or truncated entry (killed writer on a non-atomic
filesystem, manual tampering) is detected, counted, unlinked, and treated
as a miss — never an exception.

Two cache **slots** share one :class:`ResultCache` root:

``flow``
    whole-flow results keyed by :func:`flow_cache_key` — the original
    (PR-5) namespace, stored at ``<root>/<key[:2]>/<key>.json`` so every
    pre-existing entry stays valid;
``stage``
    per-stage results keyed by :func:`stage_cache_key` over
    (network fingerprint, stage name, semantic stage config) — the disk
    tier of :class:`StageMemo`, stored under ``<root>/stage/``.  Every
    flow stage runs through :func:`repro.sbm.flow.run_stage`, which
    consults the memo: the waterfall whenever a cache is active, the
    ``repro.orchestrate`` search always.  That makes resuming an
    interrupted flow a rerun against the same cache directory.
    Hit/miss/store counters are tracked per slot
    (:meth:`ResultCache.slot_stats`), so flow-level and stage-level memo
    effectiveness are observable independently in the campaign section
    of run-report v3.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple, Union

from repro.aig.aig import Aig
from repro.parallel.window_io import CompactAig
from repro.partition.partitioner import PartitionConfig

if TYPE_CHECKING:  # repro.sbm.flow imports this module
    from repro.sbm.config import FlowConfig

#: Version tag of the optimization code itself, salted into every cache key
#: and entry.  Bump whenever an engine change may alter *results* (not just
#: speed): every cached entry computed under the old code then reads as a
#: miss instead of replaying stale networks.
CODE_VERSION = "sbm-flow/8"
#: Bump when the entry layout (not the flow semantics) changes.
CACHE_SCHEMA = "repro.campaign/cache-v1"
#: Entry schema of the per-stage memo slot (``repro.orchestrate``).
STAGE_SCHEMA = "repro.campaign/stage-cache-v1"


# -- canonical forms -----------------------------------------------------------

def atomic_write_text(path: str, text: str) -> None:
    """Write *text* to *path* via temp-file + fsync + atomic rename.

    A ``kill -9`` at any instant leaves either the old file or the new
    one, never a torn mix.  Every durable write in the repo (cache
    entries, packed archives, fuzz bundles) goes through here.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def canonical_digest(document: Any) -> str:
    """SHA-256 hex digest of *document* in canonical JSON form.

    Canonical = sorted keys, no whitespace variance — stable across
    processes, platforms, and dict-ordering accidents.  This is the one
    hash primitive behind every content key in the repo: flow cache keys,
    stage memo keys, fuzz bundle fingerprints
    (:func:`repro.fuzz.oracle.network_key`), and telemetry-history ingest
    keys (:func:`repro.obs.history.ingest_key_of`) all reduce to it, so
    their outputs are mutually consistent and previously written keys
    stay valid.
    """
    payload = json.dumps(document, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def canonical_network(aig: Aig) -> Dict[str, Any]:
    """Order-stable CompactAig dict of *aig*; the network part of the key."""
    compact = CompactAig.from_aig(aig)
    # ``name`` is labeling, not structure: two renamed copies of the same
    # network must share a cache entry.
    return {"num_pis": compact.num_pis,
            "gates": [list(gate) for gate in compact.gates],
            "outputs": list(compact.outputs)}


def network_fingerprint(network: Any) -> str:
    """SHA-256 hex content fingerprint of a network (name excluded).

    Accepts an :class:`~repro.aig.aig.Aig` or an already-flattened
    :class:`~repro.parallel.window_io.CompactAig`.  Two structurally
    identical networks share a fingerprint regardless of how they were
    produced or what they are called.  This is the single network-hash
    helper for the repo — the stage memo layer, fuzz bundle fingerprints,
    and history ingest all route through it instead of rolling their own.
    """
    if isinstance(network, Aig):
        document = canonical_network(network)
    else:  # CompactAig (duck-typed: avoids importing window_io eagerly)
        document = {"num_pis": network.num_pis,
                    "gates": [list(gate) for gate in network.gates],
                    "outputs": list(network.outputs)}
    return canonical_digest(document)


def _partition_dict(config: Optional[PartitionConfig]) -> Optional[Dict[str, int]]:
    if config is None:
        return None
    return {"max_levels": config.max_levels,
            "max_size": config.max_size,
            "max_leaves": config.max_leaves}


def _engine_dicts(config: FlowConfig) -> Dict[str, Dict[str, Any]]:
    """Canonical per-engine knob dicts; one source for flow AND stage keys."""
    bdiff = config.boolean_difference
    return {
        "boolean_difference": {
            "xor_cost": bdiff.xor_cost,
            "bdd_size_limit": bdiff.bdd_size_limit,
            "bdd_node_limit": bdiff.bdd_node_limit,
            "max_pairs_per_node": bdiff.max_pairs_per_node,
            "max_pairs_per_partition": bdiff.max_pairs_per_partition,
            "min_shared_support": bdiff.min_shared_support,
            "max_inclusion": bdiff.max_inclusion,
            "accept_zero_gain": bdiff.accept_zero_gain,
            "reorder": bdiff.reorder,
            "partition": _partition_dict(bdiff.partition),
        },
        "mspf": {
            "bdd_node_limit": config.mspf.bdd_node_limit,
            "max_connectable_fanins": config.mspf.max_connectable_fanins,
            "partition": _partition_dict(config.mspf.partition),
        },
        "simresub": {
            "pattern_words": config.simresub.pattern_words,
            "max_patterns": config.simresub.max_patterns,
            "max_divisors": config.simresub.max_divisors,
            "max_pair_checks": config.simresub.max_pair_checks,
            "sat_conflict_budget": config.simresub.sat_conflict_budget,
            "seed": config.simresub.seed,
            "partition": _partition_dict(config.simresub.partition),
        },
        "kernel": {
            "eliminate_thresholds": list(config.kernel.eliminate_thresholds),
            "max_cubes": config.kernel.max_cubes,
            "kernel_rounds": config.kernel.kernel_rounds,
            "partition": _partition_dict(config.kernel.partition),
        },
        "gradient": {
            "cost_budget": config.gradient.cost_budget,
            "window_k": config.gradient.window_k,
            "min_gain_gradient": config.gradient.min_gain_gradient,
            "budget_extension": config.gradient.budget_extension,
            "partition": _partition_dict(config.gradient.partition),
        },
    }


def canonical_flow_config(config: FlowConfig) -> Optional[Dict[str, Any]]:
    """Semantic fields of *config* as a canonical dict, or ``None``.

    ``None`` means the run is uncacheable: chaos injection and wall-clock
    budgets make the result a function of timing/faults, not just of
    (network, config).  Execution-side fields (``jobs``, ``pool``,
    ``orchestrate.threads``) are deliberately absent — they
    change *where* windows run, never what they compute.
    """
    if config.chaos is not None:
        return None
    if config.flow_timeout_s is not None or config.window_timeout_s is not None:
        return None
    ocfg = config.orchestrate
    orchestrate = None if ocfg is None else {
        "k": ocfg.k,
        "rounds": ocfg.rounds,
        "seed": ocfg.seed,
        "explore": ocfg.explore,
        "min_stages": ocfg.min_stages,
    }
    document: Dict[str, Any] = {
        "iterations": config.iterations,
        "orchestrate": orchestrate,
        "max_depth_growth": config.max_depth_growth,
        "enable_simresub": config.enable_simresub,
        "enable_sat_sweep": config.enable_sat_sweep,
        "enable_redundancy_removal": config.enable_redundancy_removal,
        "verify_each_step": config.verify_each_step,
    }
    document.update(_engine_dicts(config))
    return document


#: Which per-engine knob dicts each flow stage actually reads.  Stages not
#: listed here (script/sweep/cleanup stages) have no engine knobs — their
#: stage key is (network, stage name, effort, depth limit) alone.
_STAGE_CONFIG_DEPS: Dict[str, Tuple[str, ...]] = {
    "aig_script": (),
    "gradient": ("gradient",),
    "kernel": ("kernel",),
    "mspf": ("mspf",),
    "simresub": ("simresub",),
    "collapse_decomp": (),
    "boolean_diff": ("boolean_difference",),
    "sat_sweep": (),
    "redundancy": (),
    "balance": (),
}


def canonical_stage_config(config: FlowConfig, stage: str) -> Dict[str, Any]:
    """The slice of *config* that stage *stage* can observe, canonicalized.

    This is deliberately **narrower** than :func:`canonical_flow_config`:
    a stage key must not change when an unrelated engine's knobs change,
    or the memo would miss on semantically identical work.  ``enable_*``
    flags, ``iterations``, and ``verify_each_step`` are excluded — they
    select *which* stages run and how results are checked, never what one
    stage computes from one input network.
    """
    try:
        deps = _STAGE_CONFIG_DEPS[stage]
    except KeyError:
        raise ValueError(f"unknown flow stage {stage!r}") from None
    engines = _engine_dicts(config)
    return {name: engines[name] for name in deps}


def flow_cache_key(aig: Aig, config: FlowConfig) -> Optional[str]:
    """SHA-256 cache key of running ``sbm_flow(aig, config)``, or ``None``.

    The key is a hash of a canonical JSON document — sorted keys, no
    whitespace variance — so it is stable across processes, platforms, and
    dict-ordering accidents.  ``None`` marks the job uncacheable (see
    :func:`canonical_flow_config`).
    """
    semantic = canonical_flow_config(config)
    if semantic is None:
        return None
    return canonical_digest({
        "schema": CACHE_SCHEMA,
        "code": CODE_VERSION,
        "network": canonical_network(aig),
        "config": semantic,
    })


def stage_cache_key(network_fp: str, stage: str,
                    stage_config: Dict[str, Any],
                    effort: int = 1,
                    depth_limit: Optional[int] = None) -> str:
    """SHA-256 memo key of running one flow stage on one input network.

    *network_fp* is the input's :func:`network_fingerprint`; *stage_config*
    comes from :func:`canonical_stage_config`.  *effort* and *depth_limit*
    are in the key because a reduced-effort or depth-rolled-back result is
    a different function of the input than the full-effort one.  The code
    salt invalidates entries when the engines change, exactly like the
    flow slot.
    """
    return canonical_digest({
        "schema": STAGE_SCHEMA,
        "code": CODE_VERSION,
        "network": network_fp,
        "stage": stage,
        "effort": effort,
        "depth_limit": depth_limit,
        "config": stage_config,
    })


# -- the on-disk cache ---------------------------------------------------------

@dataclasses.dataclass
class CacheEntry:
    """One decoded cache hit: the result network plus its flow record."""

    key: str
    network: Aig
    stats: Dict[str, Any]           #: ``FlowStats.to_dict()`` of the cold run
    nodes_before: int
    nodes_after: int


@dataclasses.dataclass
class StageEntry:
    """One decoded stage-memo hit: the stage's output network + telemetry."""

    key: str
    network: Aig
    #: stage telemetry of the cold run — ``{"nodes_before", "nodes_after",
    #: "gain", "runtime_s"}`` plus whatever the stage recorded
    stats: Dict[str, Any]


#: Counter names tracked per slot.
_SLOT_COUNTERS = ("hits", "misses", "corrupt", "stores", "store_failures")
#: Entry schema of each slot.
_SLOT_SCHEMAS = {"flow": CACHE_SCHEMA, "stage": STAGE_SCHEMA}


class ResultCache:
    """Crash-safe content-addressed store of finished flow results.

    Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fanout keeps any
    single directory small on big campaigns).  Every entry is one JSON
    document carrying its own key, the code salt, the CompactAig result,
    and the cold run's ``FlowStats`` dict; :meth:`lookup` re-checks the
    embedded key and salt, so a moved, truncated, or stale file can only
    ever read as a miss.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        #: per-slot counters: ``{"flow": {...}, "stage": {...}}``
        self._stats: Dict[str, Dict[str, int]] = {
            slot: dict.fromkeys(_SLOT_COUNTERS, 0)
            for slot in ("flow", "stage")}
        self._store_warned = False

    # Aggregate counters kept as read-only properties so pre-existing
    # callers (reports, tests, benches) keep working; per-layer numbers
    # come from :meth:`slot_stats`.
    @property
    def hits(self) -> int:
        return sum(stats["hits"] for stats in self._stats.values())

    @property
    def misses(self) -> int:
        return sum(stats["misses"] for stats in self._stats.values())

    @property
    def corrupt(self) -> int:
        return sum(stats["corrupt"] for stats in self._stats.values())

    @property
    def stores(self) -> int:
        return sum(stats["stores"] for stats in self._stats.values())

    @property
    def store_failures(self) -> int:
        """Commits refused by the filesystem (disk full, permissions);
        each one degrades to an uncacheable write, never an exception."""
        return sum(stats["store_failures"] for stats in self._stats.values())

    def slot_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-slot counter snapshot: ``{"flow": {...}, "stage": {...}}``."""
        return {slot: dict(stats) for slot, stats in self._stats.items()}

    def path(self, key: str, slot: str = "flow") -> str:
        """Absolute path of *key*'s entry file (existing or not).

        The ``flow`` slot keeps the original ``<root>/<key[:2]>/`` layout
        so every pre-existing entry stays addressable; the ``stage`` slot
        nests under ``<root>/stage/``.
        """
        base = self.root if slot == "flow" else os.path.join(self.root, slot)
        return os.path.join(base, key[:2], key + ".json")

    def _lookup(self, key: str, slot: str, build: Any) -> Any:
        """Decode *key*'s entry in *slot* through ``build(data, network)``.

        Absent, stale (other key or code salt), and corrupt entries all
        read as misses; a corrupt or stale file is counted and unlinked so
        it cannot occupy its key's slot forever.
        """
        path = self.path(key, slot)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            self._stats[slot]["misses"] += 1
            return None
        entry = None
        try:
            data = json.loads(raw)
            if (data.get("schema") == _SLOT_SCHEMAS[slot]
                    and data.get("key") == key
                    and data.get("code") == CODE_VERSION
                    and isinstance(data["stats"], dict)):
                net = data["network"]
                compact = CompactAig(
                    num_pis=int(net["num_pis"]),
                    gates=[tuple(gate) for gate in net["gates"]],
                    outputs=list(net["outputs"]),
                    name=str(net.get("name", "")))
                entry = build(data, compact.to_aig())
        except (AttributeError, KeyError, TypeError, ValueError):
            entry = None
        if entry is None:
            self._stats[slot]["corrupt"] += 1
            self._stats[slot]["misses"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._stats[slot]["hits"] += 1
        return entry

    def _commit(self, key: str, slot: str, network: Union[Aig, CompactAig],
                **fields: Any) -> None:
        """Atomic write-then-rename of one entry; failures degrade to cold."""
        compact = network if isinstance(network, CompactAig) \
            else CompactAig.from_aig(network)
        document = {"schema": _SLOT_SCHEMAS[slot], "key": key,
                    "code": CODE_VERSION,
                    "network": {"num_pis": compact.num_pis,
                                "gates": [list(gate)
                                          for gate in compact.gates],
                                "outputs": list(compact.outputs),
                                "name": compact.name}}
        document.update(fields)
        path = self.path(key, slot)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write_text(path,
                              json.dumps(document, sort_keys=True) + "\n")
        except OSError as exc:
            # A full disk or revoked permission must not sink a campaign
            # mid-run: the result is already computed, the entry just
            # stays cold.  Warn once per cache, count every refusal.
            self._stats[slot]["store_failures"] += 1
            from repro import obs
            obs.metrics().inc("campaign.cache.store_failures")
            if not self._store_warned:
                self._store_warned = True
                import warnings
                warnings.warn(
                    f"result cache at {self.root} is not writable "
                    f"({type(exc).__name__}: {exc}); continuing uncached",
                    RuntimeWarning, stacklevel=2)
            return
        self._stats[slot]["stores"] += 1

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """Decode the entry for *key*; corrupt/stale entries count as misses."""
        return self._lookup(key, "flow", lambda data, network: CacheEntry(
            key=key, network=network, stats=data["stats"],
            nodes_before=int(data["nodes_before"]),
            nodes_after=int(data["nodes_after"])))

    def store(self, key: str, network: Aig, stats: Dict[str, Any],
              nodes_before: int) -> None:
        """Commit a finished result under *key* (atomic write-then-rename)."""
        self._commit(key, "flow", network, stats=stats,
                     nodes_before=nodes_before, nodes_after=network.num_ands)

    # -- the stage slot (the StageMemo disk tier) ------------------------------

    def lookup_stage(self, key: str) -> Optional[StageEntry]:
        """Decode the stage-memo entry for *key* (corrupt ⇒ miss, healed)."""
        return self._lookup(key, "stage", lambda data, network: StageEntry(
            key=key, network=network, stats=data["stats"]))

    def store_stage(self, key: str, network: Union[Aig, CompactAig],
                    stats: Dict[str, Any]) -> None:
        """Commit one stage result under *key* in the ``stage`` slot."""
        self._commit(key, "stage", network, stats=stats)

    def __len__(self) -> int:
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count


class StageMemo:
    """Two-tier store of finished stage results, keyed by
    :func:`stage_cache_key`.

    * an **in-memory map** (always on) of :class:`CompactAig` entries —
      hits within one search, across rounds and candidate orderings that
      share a prefix;
    * the **disk slot** — with a backing :class:`ResultCache`, entries are
      also committed to its ``stage`` slot, so a later flow or search (same
      process or not) starts warm.

    Lookups decode a **fresh** ``Aig`` every time: stage runners mutate
    their input in place, so handing out a shared object would corrupt the
    memo.  Thread-safe — search candidates run concurrently.
    """

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[CompactAig, Dict[str, Any]]] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    def lookup(self, key: str) -> Optional[Aig]:
        """A fresh copy of the network stored under *key*, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.memory_hits += 1
                return entry[0].to_aig()
        disk = self.cache.lookup_stage(key) if self.cache is not None \
            else None
        with self._lock:
            if disk is None:
                self.misses += 1
                return None
            self._entries.setdefault(
                key, (CompactAig.from_aig(disk.network), disk.stats))
            self.disk_hits += 1
        return disk.network

    def store(self, key: str, network: Aig, stats: Dict[str, Any]) -> None:
        """Commit one finished stage result (memory always, disk if backed)."""
        compact = CompactAig.from_aig(network)
        with self._lock:
            self._entries[key] = (compact, dict(stats))
            self.stores += 1
        if self.cache is not None:
            self.cache.store_stage(key, compact, stats)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot; ``misses`` is the number of stage recomputes."""
        with self._lock:
            return {"memory_hits": self.memory_hits,
                    "disk_hits": self.disk_hits,
                    "misses": self.misses,
                    "stores": self.stores,
                    "entries": len(self._entries)}


# -- the active cache ----------------------------------------------------------
#
# Deep call sites — the experiment tables, the ASIC flow inside Table III —
# invoke ``sbm_flow`` several layers below anything that knows about
# campaigns.  Instead of threading a cache argument through every layer,
# ``cache_context`` installs a cache that :func:`cached_sbm_flow` falls back
# to when no explicit cache is given.  The active cache is per thread, so
# concurrent campaign jobs each see the cache of their own flow, and none
# outlives the block that installed it.

_ACTIVE = threading.local()


def active_cache() -> Optional[ResultCache]:
    """The cache installed on this thread by :func:`cache_context` or
    :func:`cached_sbm_flow`, or ``None``."""
    return getattr(_ACTIVE, "cache", None)


@contextlib.contextmanager
def cache_context(cache_dir: Optional[str]) -> Iterator[Optional[ResultCache]]:
    """Install a result cache on this thread for the duration of the block.

    ``None`` is a no-op context, so callers can forward an optional
    ``--cache-dir`` flag unconditionally.  Contexts nest; the innermost
    wins.
    """
    previous = active_cache()
    cache = ResultCache(cache_dir) if cache_dir is not None else previous
    _ACTIVE.cache = cache
    try:
        yield cache
    finally:
        _ACTIVE.cache = previous


def cached_sbm_flow(aig: Aig, config: FlowConfig,
                    cache: Optional[ResultCache] = None,
                    ) -> Tuple[Aig, Any, bool, Optional[str]]:
    """Run ``sbm_flow`` through *cache*: ``(result, stats, hit, key)``.

    On a hit the returned network is decoded from the stored CompactAig —
    bit-identical to what the cold run produced (the warm == cold
    contract) — and *stats* is the cold run's ``FlowStats.to_dict()`` dict
    rather than a live ``FlowStats`` object.  On a miss (or with no cache,
    or an uncacheable config) the flow runs and, when cacheable, the result
    is committed before returning.  With no explicit *cache* the one this
    thread's :func:`cache_context` installed applies, if any.
    """
    from repro.sbm.flow import sbm_flow
    if cache is None:
        cache = active_cache()
    key = flow_cache_key(aig, config) if cache is not None else None
    if key is not None and cache is not None:
        entry = cache.lookup(key)
        if entry is not None:
            return entry.network, entry.stats, True, key
    nodes_before = aig.num_ands
    # Install this cache as the thread's active one for the duration of
    # the flow: every stage memoizes its result through ``active_cache()``
    # several layers below, and an explicitly passed campaign cache must
    # be the one it finds.
    previous = active_cache()
    _ACTIVE.cache = cache
    try:
        result, stats = sbm_flow(aig, config)
    finally:
        _ACTIVE.cache = previous
    if key is not None and cache is not None:
        cache.store(key, result, stats.to_dict(), nodes_before)
    return result, stats, False, key
