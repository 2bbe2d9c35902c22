"""Tests for the process-parallel partition execution engine.

Covers the three pillars of ``repro.parallel``:

* **Transport** — :class:`CompactAig` round-trips a window through the
  plain-data encoding and everything that crosses the process boundary
  pickles cheaply.
* **Determinism** — windows run on a four-worker pool produce a
  node-for-node identical graph to the inline path for every partition
  engine, and a ``jobs=2`` flow matches ``jobs=1``, on random networks and
  on EPFL-style benchmarks.
* **One pool per run** — a ``jobs=2`` flow forks its workers once, not
  once per multi-window pass.
* **One counter contract** — a counter-based engine's window payload,
  its pass's fold and its ``<engine>.*`` metrics all read the fields of
  its stats dataclass.
* **Fault isolation** — a worker that raises, hangs, or dies outright
  leaves the network functionally unchanged (SAT-verified) and is reported
  as a fallback rather than an error; a crashed pool is rebuilt and keeps
  serving later passes.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.aig.aig import Aig, lit_node
from repro.bench.registry import get_benchmark
from repro.parallel import (
    CompactAig,
    PartitionScheduler,
    extract_task,
    run_window_task,
    whole_network_window,
)
from repro.parallel.shared_pool import SharedProcessPool
from repro.partition.partitioner import PartitionConfig, partition_network
from repro.sat.equivalence import assert_equivalent
from repro.sbm.boolean_difference import boolean_difference_pass
from repro.sbm.config import (
    BooleanDifferenceConfig,
    FlowConfig,
    KernelConfig,
    MspfConfig,
    SimresubConfig,
)
from repro.sbm.flow import sbm_flow
from repro.sbm.hetero_kernel import hetero_kernel_pass
from repro.sbm.mspf import mspf_pass
from repro.sbm.simresub import simresub_pass

from tests.conftest import make_random_aig

#: Small windows so even the test-sized networks produce several tasks.
SMALL_PARTS = PartitionConfig(max_levels=4, max_size=40, max_leaves=16)


@pytest.fixture
def pool():
    """A two-worker pool, owned by the test."""
    with SharedProcessPool(2) as shared:
        yield shared


def signature(aig: Aig):
    """Node-for-node structural fingerprint, independent of node ids.

    Uses the :class:`CompactAig` local renumbering (PIs, then live ANDs in
    topological order), so the fingerprint only depends on the stored graph
    structure — dead nodes and id gaps are ignored, and no rebuild happens
    that could itself reorder fanins.
    """
    c = CompactAig.from_aig(aig)
    return (c.num_pis, tuple(c.gates), tuple(c.outputs))


# -- fault-injection engines -------------------------------------------------
# Module-level functions, so they pickle by reference into the workers.

def _boom_engine(sub, config):
    raise RuntimeError("injected failure")


def _sleepy_engine(sub, config):
    time.sleep(2.0)
    return False, None, {}


def _killer_engine(sub, config):
    os._exit(13)  # hard crash: no exception, no cleanup — breaks the pool


def _shrink_engine(sub, config):
    """A real (but trivial) optimizer: strashed rebuild of the window."""
    optimized = sub.cleanup()
    if optimized.num_ands < sub.num_ands:
        return True, optimized, {"shrunk": 1}
    return False, None, {}


# -- transport ---------------------------------------------------------------

class TestWindowTransport:
    def test_compact_roundtrip_identity(self):
        aig = make_random_aig(8, 120, seed=7)
        compact = CompactAig.from_aig(aig)
        rebuilt = compact.to_aig()
        assert signature(rebuilt) == signature(aig)
        assert_equivalent(aig, rebuilt)

    def test_compact_roundtrip_is_stable(self):
        aig = make_random_aig(6, 80, seed=3)
        once = CompactAig.from_aig(aig)
        twice = CompactAig.from_aig(once.to_aig())
        assert once == twice

    def test_extracted_window_pickles(self):
        aig = make_random_aig(10, 300, seed=11)
        windows = partition_network(aig, SMALL_PARTS)
        assert len(windows) > 1
        for i, window in enumerate(windows):
            blob = pickle.dumps(window)  # plain ints/lists only
            assert pickle.loads(blob) == window
            task = extract_task(aig, window, i)
            clone = pickle.loads(pickle.dumps(task))
            assert clone.compact == task.compact
            assert clone.index == i

    def test_task_matches_window_shape(self):
        aig = make_random_aig(10, 300, seed=11)
        window = partition_network(aig, SMALL_PARTS)[0]
        task = extract_task(aig, window, 0)
        assert task.compact.num_pis == len(window.leaves)
        assert len(task.compact.outputs) == len(window.roots)
        assert task.size == window.size

    def test_whole_network_window(self):
        aig = make_random_aig(6, 60, seed=5)
        window = whole_network_window(aig)
        assert window.leaves == aig.pis()
        assert set(window.nodes) == set(aig.topological_order())
        po_nodes = {lit_node(po) for po in aig.pos() if lit_node(po)}
        assert set(window.roots) == po_nodes

    def test_worker_runs_inline(self):
        aig = make_random_aig(8, 150, seed=9)
        task = extract_task(aig, whole_network_window(aig), 0)
        result = run_window_task(_shrink_engine, task, None)
        assert result.fallback is None
        if result.changed:
            assert_equivalent(task.compact.to_aig(),
                              result.optimized.to_aig())


# -- determinism -------------------------------------------------------------

ENGINE_CASES = [
    ("kernel", hetero_kernel_pass, lambda: KernelConfig(partition=SMALL_PARTS)),
    ("mspf", mspf_pass, lambda: MspfConfig(partition=SMALL_PARTS)),
    ("bdiff", boolean_difference_pass,
     lambda: BooleanDifferenceConfig(partition=SMALL_PARTS)),
]


class TestDeterminism:
    @pytest.mark.parametrize("name,pass_fn,make_config",
                             ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
    def test_engine_jobs4_equals_jobs1(self, name, pass_fn, make_config):
        reference = make_random_aig(12, 500, seed=42)
        serial = reference.cleanup()
        parallel = reference.cleanup()
        pass_fn(serial, make_config())
        with SharedProcessPool(4) as pool:
            pass_fn(parallel, make_config(), PartitionScheduler(pool=pool))
        assert signature(parallel) == signature(serial)
        assert_equivalent(reference, parallel.cleanup())

    @pytest.mark.parametrize("bench", ["router", "cavlc"])
    def test_epfl_benchmarks_jobs4_equals_jobs1(self, bench):
        reference = get_benchmark(bench, scaled=True)
        with SharedProcessPool(4) as pool:
            for name, pass_fn, make_config in ENGINE_CASES:
                serial = reference.cleanup()
                parallel = reference.cleanup()
                pass_fn(serial, make_config())
                pass_fn(parallel, make_config(), PartitionScheduler(pool=pool))
                assert signature(parallel) == signature(serial), \
                    f"{name} diverged on {bench}"
        assert_equivalent(reference, parallel.cleanup())

    def test_flow_jobs2_equals_jobs1(self):
        reference = get_benchmark("router", scaled=True)
        serial, _ = sbm_flow(reference, FlowConfig(iterations=1, jobs=1))
        parallel, _ = sbm_flow(reference, FlowConfig(iterations=1, jobs=2))
        assert signature(parallel) == signature(serial)
        assert_equivalent(reference, parallel)

    def test_jobs_zero_means_cpu_count(self, monkeypatch):
        # A stand-in CPU count keeps these pools two workers wide on any
        # machine.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for workers in (0, None):
            with SharedProcessPool(workers) as pool:
                assert pool.workers == 2
                assert PartitionScheduler(pool=pool).jobs == 2
        assert PartitionScheduler().jobs == 1

    def test_report_telemetry(self, pool):
        aig = make_random_aig(12, 500, seed=42)
        reference = aig.cleanup()
        report = PartitionScheduler(pool=pool).run_pass(
            aig, "shrink", _shrink_engine, None, partition_config=SMALL_PARTS)
        assert report.engine == "shrink"
        assert report.jobs == 2
        assert report.num_windows == len(report.records)
        assert report.num_windows > 1
        assert report.total_gain >= 0
        assert report.counter("shrunk") == report.num_applied
        text = report.format_report()
        assert "engine=shrink" in text and "jobs=2" in text
        assert_equivalent(reference, aig.cleanup())


# -- one pool per run ----------------------------------------------------------

class TestPoolOwnership:
    def test_jobs2_flow_builds_one_executor(self, monkeypatch):
        """A jobs=2 flow forks its workers once per run: one iteration on
        adder runs four multi-window passes, all on the flow's one pool.
        A flow given a pool submits into it and builds none."""
        built = []
        real_init = ProcessPoolExecutor.__init__

        def counting_init(executor, *args, **kwargs):
            built.append(executor)
            real_init(executor, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        reference = get_benchmark("adder", scaled=True)
        serial, _ = sbm_flow(reference, FlowConfig(iterations=1))
        assert built == []
        parallel, _ = sbm_flow(reference, FlowConfig(iterations=1, jobs=2))
        assert len(built) == 1
        assert signature(parallel) == signature(serial)
        with SharedProcessPool(2) as pool:
            given, _ = sbm_flow(reference, FlowConfig(iterations=1, jobs=2,
                                                      pool=pool))
        assert len(built) == 2  # the test's own pool
        assert sum(pool.submitted.values()) > 0
        assert signature(given) == signature(serial)


# -- one counter contract ----------------------------------------------------

COUNTER_CASES = [
    ("mspf", mspf_pass, lambda: MspfConfig(partition=SMALL_PARTS)),
    ("simresub", simresub_pass, lambda: SimresubConfig(partition=SMALL_PARTS)),
    ("bdiff", boolean_difference_pass,
     lambda: BooleanDifferenceConfig(partition=SMALL_PARTS)),
]


class TestCounterContract:
    @pytest.mark.parametrize("prefix,pass_fn,make_config", COUNTER_CASES,
                             ids=[c[0] for c in COUNTER_CASES])
    def test_payload_fold_and_metrics_read_the_stats_fields(
            self, prefix, pass_fn, make_config):
        aig = make_random_aig(12, 500, seed=42)
        session = obs.enable()
        try:
            stats = pass_fn(aig, make_config())
        finally:
            obs.disable()
        [report] = session.parallel_reports
        assert report.num_windows > 1
        fields = [f.name for f in dataclasses.fields(stats)]
        for record in report.records:
            assert sorted(record.payload) \
                == sorted(set(fields) - {"partitions"})
        assert stats.partitions == report.num_windows
        assert stats.gain == report.total_gain
        # The other fields sum over every window, as the workers'
        # published counters do (a skipped zero leaves no key: 0).
        for name in set(fields) - {"partitions", "rewrites", "gain"}:
            assert getattr(stats, name) == sum(
                record.payload[name] for record in report.records)
            assert getattr(stats, name) \
                == session.metrics.counter(f"{prefix}.{name}"), name
        # rewrites and gain count the applied windows only, at their
        # parent-level gain, in the stats and in the metrics alike.
        assert stats.rewrites == sum(record.payload["rewrites"]
                                     for record in report.records
                                     if record.applied)
        for name in ("rewrites", "gain"):
            assert getattr(stats, name) \
                == session.metrics.counter(f"{prefix}.{name}"), name
        assert stats.gain == session.metrics.counter(
            "parallel.gain", engine=prefix)


# -- fault isolation ---------------------------------------------------------

class TestFaultIsolation:
    def test_worker_exception_falls_back(self, pool):
        aig = make_random_aig(10, 400, seed=17)
        reference = aig.cleanup()
        before = signature(aig)
        report = PartitionScheduler(pool=pool).run_pass(
            aig, "boom", _boom_engine, None, partition_config=SMALL_PARTS)
        assert report.num_windows > 1
        assert report.num_applied == 0
        assert report.num_fallbacks == report.num_windows
        assert all(r.fallback.startswith("worker-error:RuntimeError")
                   for r in report.records)
        # Network is untouched — not just equivalent, structurally identical.
        assert signature(aig) == before
        assert_equivalent(reference, aig.cleanup())

    def test_worker_timeout_falls_back(self, pool):
        aig = make_random_aig(10, 250, seed=23)
        reference = aig.cleanup()
        before = signature(aig)
        scheduler = PartitionScheduler(pool=pool, window_timeout_s=0.25)
        report = scheduler.run_pass(aig, "sleepy", _sleepy_engine, None,
                                    partition_config=SMALL_PARTS)
        assert report.num_windows > 1
        assert report.num_applied == 0
        assert "timeout" in report.fallback_reasons
        assert signature(aig) == before
        assert_equivalent(reference, aig.cleanup())

    def test_worker_crash_restarts_pool(self, pool):
        aig = make_random_aig(10, 250, seed=29)
        reference = aig.cleanup()
        before = signature(aig)
        scheduler = PartitionScheduler(pool=pool, max_pool_restarts=1)
        report = scheduler.run_pass(aig, "killer", _killer_engine, None,
                                    partition_config=SMALL_PARTS)
        assert report.num_windows > 1
        assert report.num_applied == 0
        assert report.num_fallbacks == report.num_windows
        assert report.pool_restarts >= 1
        reasons = report.fallback_reasons
        assert "worker-crashed" in reasons or "pool-restart-limit" in reasons
        assert signature(aig) == before
        assert_equivalent(reference, aig.cleanup())
        # Every round broke the executor and rebuilt it, the last one too:
        # the pool outlives the crash and serves the next pass.
        assert pool.rebuilds == report.pool_restarts + 1
        assert pool.generation == pool.rebuilds
        healthy = PartitionScheduler(pool=pool).run_pass(
            aig, "shrink", _shrink_engine, None, partition_config=SMALL_PARTS)
        assert healthy.num_windows > 1
        assert healthy.num_fallbacks == 0
        assert pool.rebuilds == report.pool_restarts + 1
        assert_equivalent(reference, aig.cleanup())

    def test_pool_restart_exhaustion_reports_exact_cap(self, pool):
        """At the restart cap every remaining window falls back, and
        ``pool_restarts`` equals the cap — not cap+1, not "at least"."""
        aig = make_random_aig(12, 600, seed=37)
        reference = aig.cleanup()
        for cap in (1, 2):
            work = aig.cleanup()
            before = signature(work)
            rebuilds = pool.rebuilds
            scheduler = PartitionScheduler(pool=pool, max_pool_restarts=cap)
            report = scheduler.run_pass(work, "killer", _killer_engine, None,
                                        partition_config=SMALL_PARTS)
            # cap + 1 rounds, each broke the executor and rebuilt it
            assert pool.rebuilds - rebuilds == cap + 1
            assert report.num_windows > 1
            assert report.num_applied == 0
            # Every window is accounted for: crashed or abandoned.
            assert report.num_fallbacks == report.num_windows
            assert report.pool_restarts == cap
            assert "pool-restart-limit" in report.fallback_reasons
            assert signature(work) == before
            assert_equivalent(reference, work)


# -- CLI plumbing ------------------------------------------------------------

class TestJobsFlag:
    def test_extract_jobs_variants(self):
        from repro.__main__ import _extract_jobs
        assert _extract_jobs(["table1", "-j", "4"]) == (["table1"], 4)
        assert _extract_jobs(["--jobs", "8", "table2"]) == (["table2"], 8)
        assert _extract_jobs(["--jobs=0", "fig1"]) == (["fig1"], 0)
        assert _extract_jobs(["bench"]) == (["bench"], 1)
        with pytest.raises(SystemExit):
            _extract_jobs(["table1", "--jobs"])

    def test_flow_config_carries_jobs(self):
        config = FlowConfig(jobs=3, window_timeout_s=1.5)
        assert config.jobs == 3
        assert config.window_timeout_s == 1.5
