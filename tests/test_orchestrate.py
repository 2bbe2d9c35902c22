"""Tests for the pass-ordering search (``repro.orchestrate``).

The contracts under test:

* **Off == classic** — with ``FlowConfig.orchestrate`` left at ``None``
  the flow never even imports the search module, and the result is the
  deterministic fixed waterfall at any worker count.
* **Determinism** — a K-candidate search at ``jobs=4`` chooses the same
  ordering and produces the same final network as ``jobs=1`` (and as a
  rerun), because candidates are pure functions of (network, sequence,
  config) and the winner rule is ``(score, index)``.
* **Memo warm == cold** — a second search against the same cache
  directory recomputes **zero** stages and returns a byte-identical best
  network and the same chosen ordering.
* **Chaos containment** — a corrupt-stage fault inside one candidate is
  rolled back by the per-candidate guard without sinking the search, a
  result-changing fault plan disables the memo entirely, and a guarded
  search re-checks every memo hit.
* **Key hygiene** — stage keys track semantic knobs only; execution
  knobs (threads) never enter flow or stage keys.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.registry import get_benchmark
from repro.campaign import (
    cache_context,
    canonical_stage_config,
    flow_cache_key,
    network_fingerprint,
    stage_cache_key,
)
from repro.guard.chaos import FaultPlan
from repro.parallel.window_io import CompactAig
from repro.sat.equivalence import check_equivalence
from repro.sbm.config import FlowConfig, OrchestrateConfig
from repro.sbm.flow import sbm_flow

from tests.conftest import corrupt_stage_entry, make_random_aig


def structure(aig):
    """Canonical structural tuple for bit-identity comparison."""
    compact = CompactAig.from_aig(aig)
    return compact.num_pis, tuple(compact.gates), tuple(compact.outputs)


def small_search_config(**overrides) -> FlowConfig:
    ocfg = OrchestrateConfig(k=overrides.pop("k", 3),
                             rounds=overrides.pop("rounds", 2),
                             seed=overrides.pop("seed", 0xD46A11))
    return FlowConfig(iterations=1, orchestrate=ocfg, **overrides)


# -- orchestrate off: the classic waterfall is untouched ----------------------

class TestOrchestrateOff:
    def test_classic_flow_never_imports_search(self, monkeypatch):
        """orchestrate=None must not even touch repro.orchestrate."""
        import sys
        for name in [m for m in sys.modules if m.startswith("repro.orchestrate")]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setitem(sys.modules, "repro.orchestrate.search", None)
        aig = make_random_aig(6, 60, seed=11)
        optimized, stats = sbm_flow(aig, FlowConfig(iterations=1))
        assert optimized.num_ands <= aig.num_ands
        assert stats.orchestrate is None
        assert "orchestrate" not in stats.to_dict()

    @pytest.mark.parametrize("name", ["router", "i2c"])
    def test_waterfall_bit_identical_across_jobs(self, name):
        aig = get_benchmark(name)
        serial, _ = sbm_flow(aig, FlowConfig(iterations=1, jobs=1))
        fanned, _ = sbm_flow(aig, FlowConfig(iterations=1, jobs=4))
        assert structure(serial) == structure(fanned)

    def test_flow_key_ignores_orchestrate_threads(self):
        aig = get_benchmark("router")
        base = FlowConfig(iterations=1, orchestrate=OrchestrateConfig(k=3))
        threaded = dataclasses.replace(
            base, orchestrate=dataclasses.replace(base.orchestrate, threads=7))
        assert flow_cache_key(aig, base) == flow_cache_key(aig, threaded)
        off = FlowConfig(iterations=1)
        assert flow_cache_key(aig, base) != flow_cache_key(aig, off)

    def test_incompatible_knobs_raise(self):
        aig = make_random_aig(5, 30, seed=3)
        with pytest.raises(ValueError, match="flow_timeout_s"):
            sbm_flow(aig, small_search_config(flow_timeout_s=10.0))


# -- the search itself --------------------------------------------------------

class TestOrderingSearch:
    def test_search_is_deterministic_and_equivalent(self):
        aig = make_random_aig(7, 120, seed=42)
        config = small_search_config(k=4)
        one, stats_one = sbm_flow(aig, config)
        two, stats_two = sbm_flow(aig, config)
        assert structure(one) == structure(two)
        assert stats_one.orchestrate["chosen"] == stats_two.orchestrate["chosen"]
        ok, _cex = check_equivalence(aig, one)
        assert ok
        assert one.num_ands <= aig.num_ands

    def test_jobs4_matches_jobs1(self):
        aig = make_random_aig(7, 120, seed=42)
        serial, s1 = sbm_flow(aig, small_search_config(k=4, jobs=1))
        fanned, s4 = sbm_flow(aig, small_search_config(k=4, jobs=4))
        assert structure(serial) == structure(fanned)
        assert s1.orchestrate["chosen"] == s4.orchestrate["chosen"]
        ok, _cex = check_equivalence(aig, fanned)
        assert ok

    def test_stats_record_rounds_and_candidates(self):
        aig = make_random_aig(6, 80, seed=9)
        _net, stats = sbm_flow(aig, small_search_config(k=3, rounds=2))
        doc = stats.orchestrate
        assert doc["k"] == 3
        assert len(doc["rounds"]) == 2
        for entry in doc["rounds"]:
            assert len(entry["candidates"]) == 3
            assert entry["ordering"][-1] == "balance"  # vital stage pinned
        # every candidate of every round ends with the pinned tail
        for entry in doc["rounds"]:
            for cand in entry["candidates"]:
                assert cand["sequence"][-1] == "balance"

    def test_iteration_stage_records_are_labelled_by_round(self):
        aig = make_random_aig(6, 80, seed=9)
        _net, stats = sbm_flow(aig, small_search_config(k=2, rounds=2))
        names = [record.name for record in stats.records]
        assert names[0] == "initial" and names[-1] == "final"
        assert any(name.endswith("[r1]") for name in names)
        assert any(name.endswith("[r2]") for name in names)


# -- the stage memo -----------------------------------------------------------

class TestStageMemo:
    def test_warm_rerun_recomputes_nothing(self, tmp_path, monkeypatch):
        import repro.campaign.cache as cache_module
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sbm-flow/next")
        aig = make_random_aig(7, 120, seed=17)
        config = small_search_config(k=3)
        with cache_context(str(tmp_path / "cache")):
            cold, cold_stats = sbm_flow(aig, config)
        cold_memo = cold_stats.orchestrate["stage_memo"]
        assert cold_memo["misses"] > 0 and cold_memo["stores"] > 0
        with cache_context(str(tmp_path / "cache")):
            warm, warm_stats = sbm_flow(aig, config)
        warm_memo = warm_stats.orchestrate["stage_memo"]
        assert warm_memo["misses"] == 0, "warm search recomputed a stage"
        assert warm_memo["stores"] == 0
        assert warm_memo["disk_hits"] > 0
        assert structure(cold) == structure(warm)
        assert (cold_stats.orchestrate["chosen"]
                == warm_stats.orchestrate["chosen"])

    def test_memo_works_without_cache_context(self):
        """In-memory memo alone still dedups repeated stage evaluations."""
        aig = make_random_aig(6, 90, seed=23)
        _net, stats = sbm_flow(aig, small_search_config(k=3))
        memo = stats.orchestrate["stage_memo"]
        # candidate 0 repeats the incumbent each round: memory hits happen
        assert memo["memory_hits"] > 0
        assert memo["disk_hits"] == 0  # no cache directory active

    def test_search_replays_waterfall_entries(self, tmp_path):
        """Effort-1 waterfall and search stages share memo entries."""
        aig = make_random_aig(7, 120, seed=19)
        with cache_context(str(tmp_path / "cache")):
            waterfall, _ = sbm_flow(aig, FlowConfig(iterations=1))
            searched, stats = sbm_flow(aig, small_search_config(k=1,
                                                                rounds=1))
        memo = stats.orchestrate["stage_memo"]
        assert memo["misses"] == 0 and memo["disk_hits"] == 9
        assert structure(searched) == structure(waterfall)

    def test_guarded_search_rechecks_memo_hits(self, tmp_path):
        aig = make_random_aig(7, 120, seed=17)
        cache_dir = str(tmp_path / "cache")
        with cache_context(cache_dir):
            sbm_flow(aig, small_search_config(k=2))
        corrupt_stage_entry(cache_dir, aig, FlowConfig())
        with cache_context(cache_dir):
            optimized, stats = sbm_flow(
                aig, small_search_config(k=2, verify_each_step=True))
        assert stats.guard.rollbacks >= 1
        ok, _cex = check_equivalence(aig, optimized)
        assert ok, "a guarded search trusted a corrupt memo entry"

    def test_stage_key_semantics(self):
        aig = get_benchmark("router")
        fp = network_fingerprint(aig)
        config = FlowConfig(iterations=1)
        key = stage_cache_key(fp, "mspf", canonical_stage_config(config, "mspf"))
        # same inputs -> same key
        assert key == stage_cache_key(
            fp, "mspf", canonical_stage_config(config, "mspf"))
        # a semantic knob of the stage's engine changes the key
        tweaked = dataclasses.replace(
            config,
            mspf=dataclasses.replace(config.mspf, max_connectable_fanins=3))
        assert key != stage_cache_key(
            fp, "mspf", canonical_stage_config(tweaked, "mspf"))
        # a knob of a *different* engine does not
        other = dataclasses.replace(
            config, kernel=dataclasses.replace(config.kernel, max_cubes=9))
        assert key == stage_cache_key(
            fp, "mspf", canonical_stage_config(other, "mspf"))
        with pytest.raises(ValueError):
            canonical_stage_config(config, "no-such-stage")


# -- chaos containment --------------------------------------------------------

class TestChaos:
    def test_corrupt_stage_rolls_back_without_sinking_search(self):
        aig = make_random_aig(7, 120, seed=31)
        config = small_search_config(
            k=3, rounds=2,
            chaos=FaultPlan(seed=7, stage_corrupt_rate=0.4),
            verify_each_step=True)
        optimized, stats = sbm_flow(aig, config)
        guard = stats.guard
        assert guard is not None
        assert guard.rollbacks, "expected at least one chaos rollback"
        assert guard.faults, "fault plan should have injected"
        ok, _cex = check_equivalence(aig, optimized)
        assert ok, "guard let a corrupted candidate through"
        # chaos makes stage results fault-dependent: memo must be off
        assert stats.orchestrate["stage_memo"] is None

    def test_interrupt_only_plan_keeps_memo_on(self):
        aig = make_random_aig(6, 60, seed=33)
        config = small_search_config(
            k=2, rounds=1, chaos=FaultPlan(seed=7, rate=0.0,
                                           interrupt_after=3))
        _net, stats = sbm_flow(aig, config)
        assert stats.orchestrate["stage_memo"] is not None
        assert stats.guard.faults == []


# -- suite + campaign wiring --------------------------------------------------

class TestWiring:
    def test_suite_orchestrate_k(self, tmp_path):
        from repro.campaign import load_suite
        path = tmp_path / "suite.toml"
        path.write_text(
            'name = "orch"\n'
            "[defaults]\n"
            "iterations = 1\n"
            "[[jobs]]\n"
            'benchmark = "router"\n'
            "orchestrate_k = 3\n"
            "[[jobs]]\n"
            'benchmark = "i2c"\n')
        _name, jobs = load_suite(str(path))
        assert jobs[0].config.orchestrate.k == 3
        assert jobs[1].config.orchestrate is None
        path.write_text(
            "[[jobs]]\n"
            'benchmark = "router"\n'
            "orchestrate_k = 0\n")
        with pytest.raises(ValueError, match="orchestrate_k"):
            load_suite(str(path))

    def test_campaign_reports_cache_slots(self, tmp_path, monkeypatch):
        import repro.campaign.cache as cache_module
        from repro.campaign import jobs_from_benchmarks, run_campaign
        monkeypatch.setattr(cache_module, "CODE_VERSION", "sbm-flow/next")
        config = small_search_config(k=2, rounds=1)
        jobs = jobs_from_benchmarks(["router"], config=config)
        report = run_campaign(jobs, cache_dir=str(tmp_path / "cache"))
        slots = report.cache_slots
        assert set(slots) == {"flow", "stage"}
        assert slots["stage"]["stores"] > 0
        assert report.to_dict()["cache_slots"] == slots


# -- the search's trace: one subtree per candidate ---------------------------

class TestSearchTrace:
    def test_ordering_spans_hold_tagged_candidate_subtrees(self):
        from repro import obs
        session = obs.enable()
        try:
            _, stats = sbm_flow(get_benchmark("router"),
                                small_search_config(k=2, rounds=2))
        finally:
            obs.disable()
        [flow] = session.tracer.roots
        orderings = [span for span in flow.children
                     if span.kind == "ordering"]
        assert len(orderings) == 2
        for r, ordering in enumerate(orderings):
            candidates = ordering.children
            assert [(c.kind, c.attrs["round"], c.attrs["candidate"])
                    for c in candidates] \
                == [("candidate", r, 0), ("candidate", r, 1)]
            winners = [c for c in candidates if c.attrs["winner"]]
            assert len(winners) == 1
            assert winners[0].attrs["candidate"] \
                == stats.orchestrate["rounds"][r]["winner"]
            rows = [rec.size for rec in stats.records
                    if rec.name.endswith(f"[r{r + 1}]")]
            assert [stage.attrs["nodes_after"]
                    for stage in winners[0].children
                    if stage.kind == "stage"] == rows

    def test_orchestrated_job_reports_its_winners_passes(self):
        from repro.campaign import jobs_from_benchmarks, run_campaign
        report = run_campaign(
            jobs_from_benchmarks(["router"],
                                 config=small_search_config(k=2, rounds=1)),
            cache_dir=None, workers=1)
        # Only the winner's passes count; a stage it replayed from the
        # memo ran in another candidate and brings no pass report.
        assert report.parallel is not None
        assert 1 <= report.parallel["passes"] <= 4
        assert set(report.result("router").engine_gain) \
            <= {"kernel", "mspf", "simresub", "bdiff"}
