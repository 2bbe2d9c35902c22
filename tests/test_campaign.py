"""Tests for the campaign orchestrator and its result cache.

The contracts under test:

* **Key stability** — the cache key is a pure function of (network,
  semantic config, code version): stable across processes, insensitive to
  execution-side knobs (``jobs``, ``pool``), and
  different whenever a semantic knob differs.
* **Warm == cold** — a cache hit decodes to a network bit-identical to
  what the cold run produced, on real EPFL benchmarks.
* **Crash safety** — corrupt or truncated entries read as misses (and are
  counted), never as exceptions or wrong networks.
* **Aggregation** — campaign-level parallel telemetry sums every job's
  passes instead of keeping only the last flow's report.
* **Chaos** — a fault seed flows through the campaign path and marks the
  affected jobs uncacheable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.bench.registry import get_benchmark
from repro.campaign import (
    CampaignJob,
    ResultCache,
    active_cache,
    cache_context,
    cache_inventory,
    cached_sbm_flow,
    canonical_flow_config,
    flow_cache_key,
    jobs_from_benchmarks,
    load_suite,
    run_campaign,
)
from repro.parallel.stats import ParallelReport, WindowRecord, aggregate_reports
from repro.parallel.window_io import CompactAig
from repro.sbm.config import FlowConfig

from tests.conftest import make_random_aig


def structure(aig):
    """Canonical structural tuple for bit-identity comparison."""
    compact = CompactAig.from_aig(aig)
    return compact.num_pis, tuple(compact.gates), tuple(compact.outputs)


# -- cache keys ---------------------------------------------------------------

class TestCacheKey:
    def test_stable_within_process(self):
        aig = get_benchmark("router")
        assert (flow_cache_key(aig, FlowConfig(iterations=1))
                == flow_cache_key(get_benchmark("router"),
                                  FlowConfig(iterations=1)))

    def test_stable_across_processes(self):
        aig = get_benchmark("router")
        here = flow_cache_key(aig, FlowConfig(iterations=1))
        code = (
            "from repro.bench.registry import get_benchmark\n"
            "from repro.campaign import flow_cache_key\n"
            "from repro.sbm.config import FlowConfig\n"
            "print(flow_cache_key(get_benchmark('router'),"
            " FlowConfig(iterations=1)))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        env["PYTHONHASHSEED"] = "12345"  # keys must not depend on hashing
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == here

    def test_execution_knobs_do_not_change_the_key(self):
        aig = get_benchmark("router")
        base = flow_cache_key(aig, FlowConfig(iterations=1))
        assert flow_cache_key(aig, FlowConfig(iterations=1, jobs=4)) == base

    def test_semantic_knobs_change_the_key(self):
        aig = get_benchmark("router")
        base = flow_cache_key(aig, FlowConfig(iterations=1))
        assert flow_cache_key(aig, FlowConfig(iterations=2)) != base
        assert flow_cache_key(aig, FlowConfig(
            iterations=1, enable_sat_sweep=False)) != base
        deeper = FlowConfig(iterations=1)
        deeper.kernel.kernel_rounds += 1
        assert flow_cache_key(aig, deeper) != base

    def test_network_structure_changes_the_key(self):
        a = make_random_aig(6, 40, seed=1)
        b = make_random_aig(6, 40, seed=2)
        config = FlowConfig(iterations=1)
        assert flow_cache_key(a, config) != flow_cache_key(b, config)

    def test_network_name_does_not_change_the_key(self):
        a = get_benchmark("router")
        b = get_benchmark("router")
        b.name = "renamed"
        config = FlowConfig(iterations=1)
        assert flow_cache_key(a, config) == flow_cache_key(b, config)

    def test_timing_and_chaos_are_uncacheable(self):
        from repro.guard.chaos import FaultPlan
        aig = get_benchmark("router")
        assert canonical_flow_config(FlowConfig(flow_timeout_s=10.0)) is None
        assert canonical_flow_config(
            FlowConfig(window_timeout_s=1.0)) is None
        assert flow_cache_key(aig, FlowConfig(chaos=FaultPlan(seed=7))) is None

    def test_simresub_knobs_are_semantic(self):
        # The fifth engine's config travels in the cache key: flipping the
        # stage off or changing any CEGAR knob must produce a new key.
        aig = get_benchmark("router")
        base = flow_cache_key(aig, FlowConfig(iterations=1))
        assert flow_cache_key(aig, FlowConfig(
            iterations=1, enable_simresub=False)) != base
        for change in (dict(pattern_words=8), dict(max_divisors=16),
                       dict(max_pair_checks=100), dict(seed=42),
                       dict(sat_conflict_budget=10)):
            tweaked = FlowConfig(iterations=1)
            tweaked.simresub = dataclasses.replace(tweaked.simresub, **change)
            assert flow_cache_key(aig, tweaked) != base, change
        semantic = canonical_flow_config(FlowConfig(iterations=1))
        assert semantic is not None and "simresub" in semantic

    def test_code_version_salts_the_key(self, monkeypatch):
        import repro.campaign.cache as cache_module
        aig = get_benchmark("router")
        base = flow_cache_key(aig, FlowConfig(iterations=1))
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sbm-flow/next")
        assert flow_cache_key(aig, FlowConfig(iterations=1)) != base


# -- the on-disk cache --------------------------------------------------------

class TestResultCache:
    def _store_one(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        aig = make_random_aig(6, 60, seed=11)
        result, stats, hit, key = cached_sbm_flow(
            aig, FlowConfig(iterations=1), cache)
        assert not hit and key is not None
        return cache, aig, result, key

    def test_roundtrip_is_bit_identical(self, tmp_path):
        cache, aig, cold, key = self._store_one(tmp_path)
        entry = cache.lookup(key)
        assert entry is not None
        assert structure(entry.network) == structure(cold)
        assert entry.nodes_after == cold.num_ands

    def test_corrupt_entry_is_a_counted_miss(self, tmp_path):
        cache, aig, _cold, key = self._store_one(tmp_path)
        with open(cache.path(key), "w", encoding="utf-8") as handle:
            handle.write("{ this is not json")
        assert cache.lookup(key) is None
        assert cache.corrupt == 1
        assert not os.path.exists(cache.path(key))  # self-healed
        # The next cached run recomputes and re-commits.
        result, _stats, hit, _key = cached_sbm_flow(
            aig, FlowConfig(iterations=1), cache)
        assert not hit and cache.lookup(key) is not None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache, _aig, _cold, key = self._store_one(tmp_path)
        raw = open(cache.path(key), encoding="utf-8").read()
        with open(cache.path(key), "w", encoding="utf-8") as handle:
            handle.write(raw[:len(raw) // 2])
        assert cache.lookup(key) is None
        assert cache.corrupt == 1

    def test_wrong_key_slot_is_a_miss(self, tmp_path):
        # A valid entry copied under another key must not hit: the embedded
        # key is re-checked on decode.
        cache, _aig, _cold, key = self._store_one(tmp_path)
        other = "0" * 64
        os.makedirs(os.path.dirname(cache.path(other)), exist_ok=True)
        raw = open(cache.path(key), encoding="utf-8").read()
        with open(cache.path(other), "w", encoding="utf-8") as handle:
            handle.write(raw)
        assert cache.lookup(other) is None

    def test_store_failure_degrades_to_uncacheable(self, tmp_path,
                                                   monkeypatch):
        # A full disk (or revoked permission) mid-campaign must not sink
        # the run: the result stays usable, the entry stays cold, every
        # refusal is counted, and exactly one warning is emitted.
        import warnings
        from repro.campaign import cache as cache_mod
        cache = ResultCache(str(tmp_path / "cache"))
        aig = make_random_aig(6, 60, seed=11)

        def full_disk(path, text):
            raise OSError(28, "No space left on device")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with monkeypatch.context() as patched:
                patched.setattr(cache_mod, "atomic_write_text", full_disk)
                result, _stats, hit, key = cached_sbm_flow(
                    aig, FlowConfig(iterations=1), cache)
                _r2, _s2, hit2, _k2 = cached_sbm_flow(
                    aig, FlowConfig(iterations=1), cache)
        assert not hit and not hit2
        assert result.num_ands > 0              # the flow result survived
        assert cache.slot_stats()["flow"]["store_failures"] == 2
        assert cache.stores == 0
        assert cache.lookup(key) is None        # nothing half-written
        warned = [w for w in caught
                  if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1                 # once per cache, not per job
        assert "continuing uncached" in str(warned[0].message)
        # The filesystem recovers: the very next store commits normally.
        _r3, _s3, hit3, _k3 = cached_sbm_flow(
            aig, FlowConfig(iterations=1), cache)
        assert not hit3 and cache.slot_stats()["flow"]["stores"] == 1
        assert cache.lookup(key) is not None

    def test_stale_code_version_is_a_miss(self, tmp_path, monkeypatch):
        import repro.campaign.cache as cache_module
        cache, _aig, _cold, key = self._store_one(tmp_path)
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sbm-flow/next")
        assert cache.lookup(key) is None

    def test_cache_context_routes_deep_call_sites(self, tmp_path):
        aig = make_random_aig(6, 50, seed=13)
        config = FlowConfig(iterations=1)
        with cache_context(str(tmp_path / "cache")) as cache:
            cold, _s, hit, _k = cached_sbm_flow(aig, config)
            assert not hit and cache.slot_stats()["flow"]["stores"] == 1
            warm, _s, hit, _k = cached_sbm_flow(aig, config)
            assert hit
        assert structure(cold) == structure(warm)
        # Outside the context the cache is inactive again.
        _result, _s, hit, key = cached_sbm_flow(aig, config)
        assert not hit and key is None


# -- the campaign runner ------------------------------------------------------

BENCHES = ["router", "i2c"]  # two real EPFL benchmarks


@pytest.fixture(scope="module")
def cold_campaign(tmp_path_factory):
    """One shared cold campaign over two EPFL benchmarks (expensive)."""
    cache_dir = str(tmp_path_factory.mktemp("campaign_cache"))
    report = run_campaign(
        jobs_from_benchmarks(BENCHES, config=FlowConfig(iterations=1)),
        cache_dir=cache_dir, workers=1, suite="test-cold")
    return cache_dir, report


class TestCampaign:
    def test_cold_run_misses_and_commits(self, cold_campaign):
        cache_dir, cold = cold_campaign
        assert cold.misses == len(BENCHES) and cold.hits == 0
        assert cold.errors == 0
        assert cold.cache_slots["flow"]["stores"] == len(BENCHES)
        assert len(cache_inventory(cache_dir)["flow"]) == len(BENCHES)

    def test_warm_equals_cold_bit_identical(self, cold_campaign):
        cache_dir, cold = cold_campaign
        warm = run_campaign(
            jobs_from_benchmarks(BENCHES, config=FlowConfig(iterations=1)),
            cache_dir=cache_dir, workers=1, suite="test-warm")
        assert warm.hits == len(BENCHES) and warm.misses == 0
        for name in BENCHES:
            assert (structure(warm.result(name).network)
                    == structure(cold.result(name).network)), name

    def test_partial_invalidation_recomputes_exactly_the_dropped_job(
            self, cold_campaign):
        cache_dir, cold = cold_campaign
        dropped = BENCHES[0]
        key = flow_cache_key(get_benchmark(dropped), FlowConfig(iterations=1))
        os.unlink(ResultCache(cache_dir).path(key))
        partial = run_campaign(
            jobs_from_benchmarks(BENCHES, config=FlowConfig(iterations=1)),
            cache_dir=cache_dir, workers=1, suite="test-partial")
        outcomes = {row.name: row.outcome for row in partial.results}
        assert outcomes[dropped] == "miss"
        assert all(v == "hit" for k, v in outcomes.items() if k != dropped)
        for name in BENCHES:
            assert (structure(partial.result(name).network)
                    == structure(cold.result(name).network)), name

    def test_within_campaign_dedup(self, tmp_path):
        config = FlowConfig(iterations=1)
        jobs = [CampaignJob(name="a", benchmark="router", config=config),
                CampaignJob(name="b", benchmark="router", config=config)]
        report = run_campaign(jobs, cache_dir=str(tmp_path / "c"), workers=1)
        assert report.deduped == 1 and report.misses == 1
        assert (structure(report.result("a").network)
                == structure(report.result("b").network))

    def test_duplicate_names_rejected(self):
        config = FlowConfig(iterations=1)
        jobs = [CampaignJob(name="x", benchmark="router", config=config),
                CampaignJob(name="x", benchmark="i2c", config=config)]
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign(jobs, workers=1)

    def test_failing_job_does_not_sink_the_campaign(self, tmp_path):
        config = FlowConfig(iterations=1)
        jobs = [CampaignJob(name="bad", benchmark="no-such-benchmark",
                            config=config),
                CampaignJob(name="ok", benchmark="router", config=config)]
        report = run_campaign(jobs, cache_dir=str(tmp_path / "c"), workers=1)
        assert report.errors == 1
        assert report.result("bad").outcome == "error"
        assert report.result("bad").error is not None
        assert report.result("ok").outcome == "miss"

    def test_chaos_seed_through_campaign_is_uncacheable_and_correct(
            self, tmp_path):
        from repro.guard.chaos import FaultPlan
        from repro.sat.equivalence import check_equivalence
        config = FlowConfig(iterations=1, chaos=FaultPlan(seed=7),
                            verify_each_step=True)
        jobs = [CampaignJob(name="router", benchmark="router", config=config)]
        report = run_campaign(jobs, cache_dir=str(tmp_path / "c"), workers=1)
        row = report.result("router")
        assert row.outcome == "uncached" and row.key is None
        assert len(ResultCache(str(tmp_path / "c"))) == 0
        ok, _cex = check_equivalence(get_benchmark("router"), row.network)
        assert ok

    def test_concurrent_threads_match_serial(self, tmp_path):
        # Determinism across the execution axis: a 2-thread shared-pool
        # campaign produces the same networks as the serial inline path.
        names = ["router", "i2c"]
        serial = run_campaign(
            jobs_from_benchmarks(names, config=FlowConfig(iterations=1)),
            cache_dir=None, workers=1, suite="serial")
        pooled = run_campaign(
            jobs_from_benchmarks(names, config=FlowConfig(iterations=1)),
            cache_dir=None, workers=2, threads=2, suite="pooled")
        for name in names:
            assert (structure(serial.result(name).network)
                    == structure(pooled.result(name).network)), name

    def test_overlapping_jobs_leave_no_cache_installed(self, tmp_path,
                                                      monkeypatch):
        """Two job threads overlap and the first to start finishes first:
        neither may leave the campaign cache installed afterwards."""
        import repro.sbm.flow as flow_mod
        real_flow = flow_mod.sbm_flow
        real_store = ResultCache.store
        both_running = threading.Barrier(2, timeout=60)
        first_stored = threading.Event()
        first_thread = []

        def overlapping_flow(aig, config=None):
            both_running.wait()
            if aig.name == "first":
                first_thread.append(threading.current_thread())
            else:
                # cached_sbm_flow stores after it restores the thread's
                # previous cache: the first job has finished by now.
                first_stored.wait(60)
            return real_flow(aig, config)

        def store(cache, *args, **kwargs):
            result = real_store(cache, *args, **kwargs)
            if threading.current_thread() in first_thread:
                first_stored.set()
            return result

        monkeypatch.setattr(flow_mod, "sbm_flow", overlapping_flow)
        monkeypatch.setattr(ResultCache, "store", store)
        jobs = []
        for seed, name in enumerate(("first", "second")):
            network = make_random_aig(6, 40, seed=seed)
            network.name = name
            jobs.append(CampaignJob(name, name, FlowConfig(iterations=1),
                                    network=network))
        report = run_campaign(jobs, cache_dir=str(tmp_path / "c"),
                              workers=1, threads=2)
        assert [row.outcome for row in report.results] == ["miss", "miss"]
        assert first_stored.is_set()
        assert active_cache() is None

    def test_job_threads_use_the_callers_cache_context(self, tmp_path):
        jobs = [CampaignJob(f"j{seed}", f"j{seed}", FlowConfig(iterations=1),
                            network=make_random_aig(6, 40, seed=seed))
                for seed in range(2)]
        with cache_context(str(tmp_path / "c")):
            cold = run_campaign(jobs, workers=1, threads=2)
            warm = run_campaign(jobs, workers=1, threads=2)
        assert [row.outcome for row in cold.results] == ["miss", "miss"]
        assert [row.outcome for row in warm.results] == ["hit", "hit"]
        assert active_cache() is None


# -- telemetry aggregation ----------------------------------------------------

def _report(engine, elapsed, useful, restarts):
    rep = ParallelReport(engine=engine, jobs=2, elapsed_s=elapsed,
                         pool_restarts=restarts)
    rep.records.append(WindowRecord(index=0, engine=engine, size=10,
                                    leaves=4, wall_s=useful, applied=True,
                                    gain=1))
    return rep


class TestAggregation:
    def test_sums_across_all_reports_not_just_the_last(self):
        # The historical pitfall: batch telemetry kept only the last flow's
        # report.  The aggregate must sum every pass.
        reports = [_report("kernel", 2.0, 4.0, 1),
                   _report("mspf", 1.0, 1.0, 0),
                   _report("bdiff", 1.0, 1.0, 2)]
        agg = aggregate_reports(reports)
        assert agg["passes"] == 3
        assert agg["pool_restarts"] == 3          # not the last report's 2
        assert agg["elapsed_s"] == pytest.approx(4.0)
        assert agg["useful_worker_wall_s"] == pytest.approx(6.0)
        assert agg["speedup"] == pytest.approx(6.0 / 4.0)  # duration-weighted
        assert agg["engines"] == {"bdiff": 1, "kernel": 1, "mspf": 1}

    def test_empty_input_is_safe(self):
        agg = aggregate_reports([])
        assert agg["passes"] == 0 and agg["speedup"] == 1.0
        assert agg["by_engine"] == {}

    def test_by_engine_attributes_gain_per_engine(self):
        reports = [_report("kernel", 2.0, 4.0, 1),
                   _report("kernel", 1.0, 2.0, 0),
                   _report("simresub", 1.0, 1.0, 0)]
        agg = aggregate_reports(reports)
        assert set(agg["by_engine"]) == {"kernel", "simresub"}
        kernel = agg["by_engine"]["kernel"]
        assert kernel["passes"] == 2 and kernel["total_gain"] == 2
        assert kernel["num_windows"] == 2 and kernel["num_applied"] == 2
        assert kernel["worker_wall_s"] == pytest.approx(6.0)
        assert agg["by_engine"]["simresub"]["total_gain"] == 1
        # The additive batch totals agree with the attribution.
        assert agg["total_gain"] == sum(
            e["total_gain"] for e in agg["by_engine"].values())

    def test_campaign_rows_carry_engine_gain(self, tmp_path):
        report = run_campaign(
            jobs_from_benchmarks(["router"], config=FlowConfig(iterations=1)),
            cache_dir=None, workers=1, suite="gain")
        row = report.result("router")
        assert set(row.engine_gain) <= {"kernel", "mspf", "simresub", "bdiff"}
        assert sum(row.engine_gain.values()) > 0
        assert row.to_dict()["engine_gain"] == row.engine_gain

    def test_campaign_report_sums_job_telemetry(self, tmp_path):
        report = run_campaign(
            jobs_from_benchmarks(["router", "i2c"],
                                 config=FlowConfig(iterations=1)),
            cache_dir=None, workers=1, suite="agg")
        # Two flows × 4 partitioned passes each (kernel, mspf, simresub,
        # bdiff): the aggregate must cover all eight, not just the last
        # flow's four.
        assert report.parallel is not None
        assert report.parallel["passes"] == 8
        assert report.parallel["num_windows"] > 0


# -- obs / run-report integration ---------------------------------------------

class TestCampaignReporting:
    def test_campaign_lands_in_v3_run_report(self, tmp_path):
        from repro.obs.report import build_report, validate_report
        session = obs.enable()
        try:
            run_campaign(
                jobs_from_benchmarks(["router"],
                                     config=FlowConfig(iterations=1)),
                cache_dir=str(tmp_path / "c"), workers=1, suite="rep")
        finally:
            obs.disable()
        assert len(session.campaign_reports) == 1
        report = build_report(session, command="test")
        validate_report(report)
        assert report["version"] == 3
        section = report["campaign"][0]
        assert section["suite"] == "rep"
        assert section["jobs"] == 1 and section["misses"] == 1
        assert section["jobs_detail"][0]["benchmark"] == "router"
        assert json.loads(json.dumps(report)) == report

    def test_session_sees_job_flows_in_job_order(self, tmp_path):
        session = obs.enable()
        try:
            run_campaign(
                jobs_from_benchmarks(["router", "i2c"],
                                     config=FlowConfig(iterations=1)),
                cache_dir=None, workers=1, suite="order")
        finally:
            obs.disable()
        assert len(session.flow_stats) == 2
        assert len(session.parallel_reports) == 8
        assert not session.metrics.is_empty()

    def test_trace_holds_one_job_subtree_per_job_in_job_order(self,
                                                              tmp_path):
        from repro.obs import load_jsonl
        shapes = []
        for threads in (1, 2):
            jobs = [CampaignJob(name=f"j{seed}", benchmark="adhoc",
                                network=make_random_aig(8, 150, seed=seed),
                                config=FlowConfig(iterations=1))
                    for seed in (1, 2, 3)]
            path = str(tmp_path / f"trace{threads}.jsonl")
            session = obs.enable(jsonl_path=path)
            try:
                report = run_campaign(jobs, cache_dir=None, workers=2,
                                      threads=threads, suite="trace")
            finally:
                obs.disable()
            trace = [span.to_dict() for span in session.tracer.roots]
            assert load_jsonl(path) == trace
            [campaign] = trace
            assert (campaign["kind"], campaign["attrs"]["suite"]) \
                == ("campaign", "trace")
            assert [job["attrs"]["name"] for job in campaign["children"]] \
                == ["j1", "j2", "j3"]
            for job, row in zip(campaign["children"], report.results):
                assert job["kind"] == "job"
                assert job["attrs"]["outcome"] == row.outcome == "uncached"
                [flow] = job["children"]
                assert flow["kind"] == "flow"
                assert flow["attrs"]["nodes_after"] == row.nodes_after
            shapes.append(_shape(campaign))
        assert shapes[0] == shapes[1]


def _shape(span):
    """A span tree's names, kinds and node attributes (no timing)."""
    nodes = {key: value for key, value in span["attrs"].items()
             if key.startswith("nodes")}
    return (span["name"], span["kind"], nodes,
            [_shape(child) for child in span["children"]])


# -- suite files --------------------------------------------------------------

class TestSuiteLoader:
    def test_loads_jobs_with_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            'name = "mini"\n'
            "[defaults]\niterations = 1\n"
            '[[jobs]]\nbenchmark = "router"\n'
            '[[jobs]]\nbenchmark = "i2c"\niterations = 2\n'
            'name = "i2c-deep"\n')
        suite, jobs = load_suite(str(path))
        assert suite == "mini"
        assert [j.name for j in jobs] == ["router", "i2c-deep"]
        assert jobs[0].config.iterations == 1
        assert jobs[1].config.iterations == 2

    def test_rejects_unknown_keys_and_empty_suites(self, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('[[jobs]]\nbenchmark = "router"\nworkers = 4\n')
        with pytest.raises(ValueError, match="unknown job key"):
            load_suite(str(bad))
        empty = tmp_path / "empty.toml"
        empty.write_text('name = "x"\n')
        with pytest.raises(ValueError, match="no .*jobs"):
            load_suite(str(empty))

    def test_repo_epfl_suite_parses(self):
        root = os.path.join(os.path.dirname(__file__), "..")
        suite, jobs = load_suite(os.path.join(root, "suites", "epfl.toml"))
        assert suite == "epfl-full"
        assert len(jobs) == 17
        assert all(j.config.iterations == 1 for j in jobs)

    def test_repo_epfl_suite_nightly_tier_adds_large_arith(self):
        # The four large arithmetic jobs ride behind the nightly-large
        # tier: absent by default, included when the tier is requested.
        root = os.path.join(os.path.dirname(__file__), "..")
        path = os.path.join(root, "suites", "epfl.toml")
        _s, default_jobs = load_suite(path)
        _s, nightly_jobs = load_suite(path, tiers=["nightly-large"])
        extra = ({j.name for j in nightly_jobs}
                 - {j.name for j in default_jobs})
        assert extra == {"log2_large", "mult_large",
                         "div_large", "hypotenuse_large"}

    def test_tiered_jobs_filtered_and_validated(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text('[[jobs]]\nbenchmark = "router"\n'
                        '[[jobs]]\nbenchmark = "i2c"\ntier = "nightly"\n')
        _s, jobs = load_suite(str(path))
        assert [j.name for j in jobs] == ["router"]
        _s, jobs = load_suite(str(path), tiers=["nightly"])
        assert [j.name for j in jobs] == ["router", "i2c"]
        bad = tmp_path / "bad.toml"
        bad.write_text('[[jobs]]\nbenchmark = "router"\ntier = 3\n')
        with pytest.raises(ValueError, match="tier"):
            load_suite(str(bad))

    def test_duplicate_benchmark_labels_are_disambiguated(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text('[[jobs]]\nbenchmark = "router"\n'
                        '[[jobs]]\nbenchmark = "router"\niterations = 2\n')
        _suite, jobs = load_suite(str(path))
        assert [j.name for j in jobs] == ["router", "router@1"]


class TestFlowConfigPool:
    def test_pool_field_defaults_to_none_and_is_not_semantic(self):
        config = FlowConfig(iterations=1)
        assert config.pool is None
        semantic = canonical_flow_config(config)
        assert semantic is not None
        assert "pool" not in json.dumps(semantic)
        replaced = dataclasses.replace(config, pool=None)
        aig = make_random_aig(5, 30, seed=3)
        assert flow_cache_key(aig, config) == flow_cache_key(aig, replaced)
