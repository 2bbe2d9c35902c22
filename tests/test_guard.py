"""Tests for ``repro.guard`` — the hardened flow execution layer.

Covers the four pillars of the robustness PR:

* **Budgets** — the deadline manager's degradation ladder (full → reduced
  → skip) and its effect on a running flow.
* **Equivalence guard** — the per-stage CEC call, rollback on miscompare,
  and the counterexample attached to the report.
* **Resume over the stage memo** — atomic write-then-rename commits,
  the memo's purity rules (degraded stages and result-changing fault
  plans stay out), and interrupted-then-rerun flows matching
  uninterrupted ones bit-for-bit.
* **Chaos** — the seeded fault plan's determinism and a full soak: the
  flow completes under injected faults with a SAT-equivalent result and
  every fault visible in the report.
"""

from __future__ import annotations

import dataclasses
import os
import warnings

import pytest

from repro.aig.aig import Aig, lit_not
from repro.aig.simprogram import SimProgram
from repro.campaign.cache import (
    ResultCache,
    StageMemo,
    atomic_write_text,
    cache_context,
)
from repro.errors import EquivalenceError
from repro.guard.budget import FULL, REDUCED, SKIP, DeadlineManager, StagePlan
from repro.guard.chaos import (
    ChaosInterrupt,
    FaultPlan,
    corrupt_window_result,
)
from repro.guard.stage_guard import GuardReport, StageGuard
from repro.parallel.window_io import CompactAig
from repro.sat.equivalence import (
    assert_equivalent,
    check_equivalence,
    find_counterexample,
)
from repro.sat.solver import SatSolver
from repro.sbm.config import FlowConfig
from repro.sbm.flow import sbm_flow

from tests.conftest import corrupt_stage_entry, make_random_aig


def signature(aig: Aig):
    """Node-for-node structural fingerprint, independent of node ids."""
    c = CompactAig.from_aig(aig)
    return (c.num_pis, tuple(c.gates), tuple(c.outputs))


def labels(aig: Aig):
    """Network, PI and PO names."""
    return (aig.name, [aig.pi_name(i) for i in range(aig.num_pis)],
            [aig.po_name(i) for i in range(aig.num_pos)])


def broken_copy(aig: Aig) -> Aig:
    """A same-size, non-equivalent copy: first PO complemented."""
    bad = aig.cleanup()
    bad.set_po(0, lit_not(bad.pos()[0]))
    return bad


# -- budgets ------------------------------------------------------------------

class TestDeadlineManager:
    def test_unbounded_budget_never_degrades(self):
        deadline = DeadlineManager(None, total_stages=8)
        for stage in range(8):
            plan = deadline.plan(f"s{stage}")
            assert plan.level == FULL
            deadline.finish(f"s{stage}")
        assert deadline.downgrades == []

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            DeadlineManager(0.0, total_stages=4)
        with pytest.raises(ValueError):
            DeadlineManager(-1.0, total_stages=4)

    def test_on_schedule_runs_full(self):
        clock = [0.0]
        deadline = DeadlineManager(100.0, total_stages=4,
                                   clock=lambda: clock[0])
        assert deadline.plan("a").level == FULL
        deadline.finish("a")
        clock[0] = 25.0  # exactly on schedule after 1/4 stages
        assert deadline.plan("b").level == FULL

    def test_behind_schedule_degrades(self):
        clock = [0.0]
        deadline = DeadlineManager(100.0, total_stages=4,
                                   clock=lambda: clock[0])
        deadline.plan("a")
        deadline.finish("a")
        clock[0] = 60.0  # 60% of budget burnt after 25% of the work
        plan = deadline.plan("b")
        assert plan.level == REDUCED
        assert [(p.stage, p.level) for p in deadline.downgrades] == \
            [("b", REDUCED)]

    def test_exhausted_budget_skips(self):
        clock = [0.0]
        deadline = DeadlineManager(10.0, total_stages=4,
                                   clock=lambda: clock[0])
        clock[0] = 10.0
        plan = deadline.plan("a")
        assert plan.level == SKIP
        assert plan.remaining_s == 0.0

    def test_to_dict_reports_downgrades(self):
        clock = [0.0]
        deadline = DeadlineManager(10.0, total_stages=2,
                                   clock=lambda: clock[0])
        clock[0] = 11.0
        deadline.plan("a")
        data = deadline.to_dict()
        assert data["budget_s"] == 10.0
        assert data["downgrades"] == [
            {"stage": "a", "level": "skip", "remaining_s": 0.0}]


class TestBudgetedFlow:
    def test_tight_budget_skips_stages_but_stays_equivalent(self):
        aig = make_random_aig(8, 150, seed=11)
        config = FlowConfig(iterations=1, flow_timeout_s=0.001)
        out, stats = sbm_flow(aig, config)
        assert stats.guard is not None
        assert stats.guard.skips > 0
        skipped = [r.name for r in stats.records if ":skipped" in r.name]
        assert skipped  # the skips are visible in the stage records too
        assert_equivalent(aig, out)

    def test_generous_budget_matches_unbudgeted_run(self):
        aig = make_random_aig(8, 150, seed=12)
        base, _ = sbm_flow(aig, FlowConfig(iterations=1))
        budgeted, stats = sbm_flow(
            aig, FlowConfig(iterations=1, flow_timeout_s=3600.0))
        assert signature(budgeted) == signature(base)
        assert stats.guard.skips == 0 and stats.guard.degradations == 0


# -- equivalence guard --------------------------------------------------------

def and_tree_and_chain(num_pis: int):
    """Two equivalent, structurally different ANDs of *num_pis* inputs."""
    tree = Aig("tree")
    tree.add_po(tree.add_and_multi(tree.add_pis(num_pis)))
    chain = Aig("chain")
    acc = 1
    for x in chain.add_pis(num_pis):
        acc = chain.add_and(acc, x)
    chain.add_po(acc)
    return tree, chain


class TestStageGuard:
    def test_accepts_equivalent_candidate(self):
        aig = make_random_aig(8, 120, seed=21)
        guard = StageGuard(aig.cleanup())
        assert guard.check(aig.cleanup()) is None

    def test_fast_rung_catches_complemented_po(self, monkeypatch):
        # Above 12 PIs CEC's random rung catches a complemented PO, so the
        # guard's one CEC call never reaches SAT.
        aig = make_random_aig(16, 120, seed=22)
        guard = StageGuard(aig.cleanup())
        monkeypatch.setattr(SatSolver, "solve_limited", None)
        cex = guard.check(broken_copy(aig))
        assert cex is not None
        assert len(cex.inputs) == aig.num_pis and cex.po_index == 0
        # The counterexample genuinely distinguishes the two networks.
        assert cex == find_counterexample(aig, broken_copy(aig))

    @pytest.mark.parametrize("num_pis, runs", [(16, 3), (9, 2)])
    def test_one_simulation_pass_per_rung(self, monkeypatch, num_pis, runs):
        # A check is one CEC call, with no simulation pass of its own: above
        # 12 PIs the random rung simulates both networks and the sweep its
        # miter; at or below, complete simulation of both networks decides.
        tree, chain = and_tree_and_chain(num_pis)
        guard = StageGuard(tree)
        calls = []
        run = SimProgram.run

        def counting_run(self, *args, **kwargs):
            calls.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SimProgram, "run", counting_run)
        assert guard.check(chain) is None
        assert len(calls) == runs

    @pytest.mark.parametrize("num_pis", [9, 16])
    def test_check_is_the_cec_verdict(self, num_pis):
        for seed in range(4):
            reference = make_random_aig(num_pis, 45, seed, num_pos=5)
            other = make_random_aig(num_pis, 45, seed + 7, num_pos=5)
            cex = StageGuard(reference.cleanup()).check(other)
            assert cex is not None
            assert cex == find_counterexample(reference, other)

    def test_commit_advances_reference(self):
        aig = make_random_aig(6, 80, seed=23)
        guard = StageGuard(aig.cleanup())
        smaller = aig.cleanup()
        guard.commit(smaller)
        assert guard.check(smaller.cleanup()) is None
        rolled = guard.rollback_copy()
        assert rolled is not guard.reference  # an editable copy
        assert rolled.num_ands == smaller.num_ands
        assert_equivalent(rolled, smaller)

    def test_flow_rolls_back_corrupted_stage(self):
        aig = make_random_aig(8, 150, seed=24)
        # Corrupt exactly one stage result via a forced stage fault; the
        # guard must roll it back and the flow must end equivalent.
        plan = FaultPlan(seed=1, rate=0.0,
                         forced={"stage:2:kernel": "corrupt-result"})
        config = FlowConfig(iterations=1, verify_each_step=True, chaos=plan)
        out, stats = sbm_flow(aig, config)
        guard = stats.guard
        assert guard.rollbacks == 1
        [event] = [e for e in guard.events if e.kind == "rolled_back"]
        assert event.stage == "kernel"
        cex = event.detail["counterexample"]
        assert isinstance(cex["inputs"], list)
        assert ("stage:2:kernel", "corrupt-result") in guard.faults
        assert any(":guard_rollback" in r.name for r in stats.records)
        assert_equivalent(aig, out)

    def test_guarded_flow_rechecks_memo_hits(self, tmp_path):
        # An unguarded run's entry must not satisfy a guarded one unchecked.
        aig = make_random_aig(7, 120, seed=17)
        cache_dir = str(tmp_path / "memo")
        with cache_context(cache_dir):
            sbm_flow(aig, FlowConfig(iterations=1))
        corrupt_stage_entry(cache_dir, aig, FlowConfig())
        with cache_context(cache_dir):
            out, stats = sbm_flow(
                aig, FlowConfig(iterations=1, verify_each_step=True))
        assert stats.guard.rollbacks >= 1
        [event] = [e for e in stats.guard.events if e.kind == "rolled_back"]
        assert event.stage == "aig_script"
        assert_equivalent(aig, out)

    def test_verify_each_step_still_passes_clean_flows(self):
        aig = make_random_aig(8, 150, seed=25)
        base, _ = sbm_flow(aig, FlowConfig(iterations=1))
        guarded, stats = sbm_flow(
            aig, FlowConfig(iterations=1, verify_each_step=True))
        assert signature(guarded) == signature(base)
        assert stats.guard.rollbacks == 0


class TestEquivalenceError:
    def test_assert_equivalent_carries_counterexample(self):
        aig = make_random_aig(6, 60, seed=31)
        with pytest.raises(EquivalenceError) as excinfo:
            assert_equivalent(aig, broken_copy(aig))
        exc = excinfo.value
        assert exc.cex is not None and len(exc.cex) == aig.num_pis
        assert exc.po_index == 0
        # Still catchable as the historical failure type.
        assert isinstance(exc, AssertionError)

    def test_check_equivalence_returns_witness(self):
        aig = make_random_aig(6, 60, seed=32)
        ok, cex = check_equivalence(aig, broken_copy(aig))
        assert not ok and cex is not None
        ok, cex = check_equivalence(aig, aig.cleanup())
        assert ok and cex is None


# -- resume over the stage memo ---------------------------------------------

def stage_entries(cache_dir):
    """Keys of the stage-memo entries committed under *cache_dir*."""
    root = os.path.join(cache_dir, "stage")
    return sorted(name[:-5] for _d, _s, names in os.walk(root)
                  for name in names if name.endswith(".json"))


def interrupt(aig, cache_dir, config, after):
    """Run *config* on *aig* until the chaos interrupt after stage *after*."""
    plan = FaultPlan(seed=5, rate=0.0, interrupt_after=after)
    with pytest.raises(ChaosInterrupt) as excinfo:
        with cache_context(cache_dir):
            sbm_flow(aig, dataclasses.replace(config, chaos=plan))
    assert excinfo.value.stage_index == after


class TestCheckpointStore:
    """The stage memo is the flow's checkpoint store: every committed
    stage result is one atomically written entry."""

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write_text(path, "hello")
        atomic_write_text(path, "world")
        with open(path) as handle:
            assert handle.read() == "world"
        assert os.listdir(str(tmp_path)) == ["x.txt"]

    def test_save_load_roundtrip(self, tmp_path):
        aig = make_random_aig(6, 80, seed=41)
        StageMemo(ResultCache(str(tmp_path))).store(
            "ab" * 32, aig, {"nodes_before": 90})
        fresh = StageMemo(ResultCache(str(tmp_path)))
        loaded = fresh.lookup("ab" * 32)
        assert signature(loaded) == signature(aig)
        assert fresh.stats()["disk_hits"] == 1
        assert fresh.lookup("cd" * 32) is None
        assert fresh.stats()["misses"] == 1

    def test_degraded_stages_leave_no_entry(self, tmp_path, monkeypatch):
        aig = make_random_aig(8, 120, seed=44)
        levels = {"gradient": REDUCED, "kernel": SKIP}
        monkeypatch.setattr(DeadlineManager, "plan", lambda self, stage:
                            StagePlan(stage, levels.get(stage, FULL),
                                      None, None))
        with cache_context(str(tmp_path)) as cache:
            _out, stats = sbm_flow(aig, FlowConfig(iterations=1))
        assert (stats.guard.degradations, stats.guard.skips) == (1, 1)
        committed = [e.stage for e in stats.guard.events
                     if e.kind == "checkpoint"]
        assert "gradient" not in committed and "kernel" not in committed
        assert len(committed) == 7
        assert len(stage_entries(str(tmp_path))) == 7
        # Only the seven full-effort stages looked the memo up.
        assert cache.slot_stats()["stage"]["misses"] == 7

    def test_fault_plan_disables_memo(self, tmp_path):
        assert not FaultPlan(seed=1, rate=0.0).alters_results
        assert not FaultPlan(seed=1, rate=0.0,
                             interrupt_after=3).alters_results
        assert FaultPlan(seed=1, rate=0.1).alters_results
        assert FaultPlan(seed=1, rate=0.0,
                         stage_corrupt_rate=0.1).alters_results
        assert FaultPlan(seed=1, rate=0.0,
                         forced={"x": "bdd-limit"}).alters_results
        aig = make_random_aig(8, 120, seed=45)
        faulty = FlowConfig(iterations=1, verify_each_step=True,
                            chaos=FaultPlan(seed=1, rate=0.2))
        with cache_context(str(tmp_path / "faulty")):
            _out, stats = sbm_flow(aig, faulty)
        assert stats.guard.checkpoints == 0
        assert stage_entries(str(tmp_path / "faulty")) == []
        quiet = FlowConfig(iterations=1, chaos=FaultPlan(
            seed=1, rate=0.0, interrupt_after=99))
        with cache_context(str(tmp_path / "quiet")):
            _out, stats = sbm_flow(aig, quiet)
        assert stats.guard.checkpoints == 9
        assert len(stage_entries(str(tmp_path / "quiet"))) == 9

    def test_no_active_cache_builds_no_memo(self, monkeypatch):
        import repro.sbm.flow as flow_mod

        def no_memo(*args, **kwargs):
            raise AssertionError("waterfall built a memo without a cache")

        monkeypatch.setattr(flow_mod, "StageMemo", no_memo)
        _out, stats = sbm_flow(make_random_aig(6, 60, seed=46),
                               FlowConfig(iterations=1))
        assert stats.guard.checkpoints == stats.guard.replayed == 0


class TestResume:
    def test_interrupt_then_resume_matches_uninterrupted(self, tmp_path):
        aig = make_random_aig(10, 300, seed=5)
        config = FlowConfig(iterations=2)
        base, _ = sbm_flow(aig, config)
        for after in (0, 3, 8, 12):
            cache_dir = str(tmp_path / f"memo{after}")
            interrupt(aig, cache_dir, config, after)
            assert len(stage_entries(cache_dir)) == after + 1
            with cache_context(cache_dir):
                out, stats = sbm_flow(aig, config)
            assert signature(out) == signature(base), after
            assert stats.guard.replayed == after + 1
            assert stats.guard.checkpoints == 18 - (after + 1)
            names = [r.name for r in stats.records]
            assert names[0] == "initial" and names[-1] == "final"
            assert len(names) == 20

    def test_checkpoints_committed_after_every_stage(self, tmp_path):
        aig = make_random_aig(8, 120, seed=44)
        with cache_context(str(tmp_path)):
            out, stats = sbm_flow(aig, FlowConfig(iterations=1))
        # 9 stages per iteration -> 9 memo commits, none replayed.
        assert stats.guard.checkpoints == 9
        assert stats.guard.replayed == 0
        assert len(stage_entries(str(tmp_path))) == 9
        with cache_context(str(tmp_path)):
            warm, stats = sbm_flow(aig, FlowConfig(iterations=1))
        assert stats.guard.replayed == 9 and stats.guard.checkpoints == 0
        assert signature(warm) == signature(out)
        # A replay keeps the design's labels, so written files match too.
        assert labels(warm) == labels(out) != labels(
            CompactAig.from_aig(out).to_aig())

    def test_resume_rejects_wrong_interface(self, tmp_path):
        aig = make_random_aig(8, 120, seed=45)
        cache_dir = str(tmp_path / "memo")
        interrupt(aig, cache_dir, FlowConfig(iterations=1), 3)
        other = make_random_aig(5, 40, seed=46)
        cold, _ = sbm_flow(other, FlowConfig(iterations=1))
        with cache_context(cache_dir):
            out, stats = sbm_flow(other, FlowConfig(iterations=1))
        assert stats.guard.replayed == 0  # no entry of another design
        assert signature(out) == signature(cold)

    def test_rerun_with_other_iteration_count_matches_cold(self, tmp_path):
        aig = make_random_aig(8, 120, seed=47)
        cache_dir = str(tmp_path / "memo")
        interrupt(aig, cache_dir, FlowConfig(iterations=1), 3)
        cold, _ = sbm_flow(aig, FlowConfig(iterations=2))
        with cache_context(cache_dir):
            out, stats = sbm_flow(aig, FlowConfig(iterations=2))
        assert signature(out) == signature(cold)
        # Effort-1 stages share keys across iteration counts (they are
        # the same computation); no effort-2 stage can replay them.
        replayed = [e for e in stats.guard.events if e.kind == "replayed"]
        assert len(replayed) == 4
        assert {e.iteration for e in replayed} == {0}


# -- chaos --------------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_same_draws(self):
        sites = [f"it1:kernel:w{i}" for i in range(200)]
        a = FaultPlan(seed=99, rate=0.2)
        b = FaultPlan(seed=99, rate=0.2)
        assert [a.draw(s) for s in sites] == [b.draw(s) for s in sites]
        assert a.injected == b.injected
        assert a.injected  # 200 sites at 20% must inject something

    def test_different_seeds_differ(self):
        sites = [f"w{i}" for i in range(300)]
        a = [FaultPlan(seed=1, rate=0.2).draw(s) for s in sites]
        b = [FaultPlan(seed=2, rate=0.2).draw(s) for s in sites]
        assert a != b

    def test_forced_overrides_and_logs(self):
        plan = FaultPlan(seed=0, rate=0.0, forced={"x": "worker-crash"})
        assert plan.draw("x") == "worker-crash"
        assert plan.draw("y") is None
        assert plan.injected == [("x", "worker-crash")]
        assert plan.injected_since(1) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, kinds=("nonsense",))
        with pytest.raises(ValueError):
            FaultPlan(seed=0, forced={"x": "nonsense"})

    def test_draw_stage_only_corrupts(self):
        plan = FaultPlan(seed=3, stage_corrupt_rate=1.0)
        assert plan.draw_stage("stage:0:kernel") == "corrupt-result"
        plan = FaultPlan(seed=3, stage_corrupt_rate=0.0)
        assert plan.draw_stage("stage:0:kernel") is None

    def test_stage_corruption_skips_networks_without_outputs(self):
        # There is no PO to complement: no stage fault is drawn.
        aig = Aig("no_pos")
        a, b = aig.add_pis(2)
        aig.add_and(a, b)
        plan = FaultPlan(seed=3, rate=0.0, stage_corrupt_rate=1.0)
        out, stats = sbm_flow(aig, FlowConfig(iterations=1, chaos=plan,
                                              verify_each_step=True))
        assert (out.num_pis, out.num_pos) == (2, 0)
        assert plan.injected == [] and stats.guard.faults == []

    def test_corrupt_window_result_flips_function(self):
        aig = make_random_aig(5, 40, seed=51)
        from repro.parallel import extract_task, whole_network_window
        task = extract_task(aig, whole_network_window(aig), 0)
        from repro.parallel.window_io import WindowResult
        clean = WindowResult(index=0, changed=False, optimized=None)
        corrupted = corrupt_window_result(task, clean)
        assert corrupted.changed and corrupted.payload["chaos"] == \
            "corrupt-result"
        ok, _ = check_equivalence(task.compact.to_aig(),
                                  corrupted.optimized.to_aig())
        assert not ok  # non-equivalent, same size: only a CEC can tell
        assert len(corrupted.optimized.gates) == len(task.compact.gates)


class TestChaosSoak:
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_flow_survives_injected_faults(self, seed):
        aig = make_random_aig(9, 200, seed=61)
        plan = FaultPlan(seed=seed, rate=0.25, stage_corrupt_rate=0.2)
        config = FlowConfig(iterations=1, jobs=2, verify_each_step=True,
                            chaos=plan)
        out, stats = sbm_flow(aig, config)
        guard = stats.guard
        assert guard.chaos_seed == seed
        assert len(guard.faults) == len(plan.injected)
        # Every stage-level corruption was caught and rolled back.
        stage_faults = [s for s, k in guard.faults
                        if s.startswith("stage:") and k == "corrupt-result"]
        assert guard.rollbacks >= len(stage_faults)
        assert_equivalent(aig, out)

    def test_chaos_is_deterministic_across_runs(self):
        aig = make_random_aig(8, 150, seed=62)
        results = []
        for _ in range(2):
            plan = FaultPlan(seed=77, rate=0.3, stage_corrupt_rate=0.2)
            out, stats = sbm_flow(
                aig, FlowConfig(iterations=1, verify_each_step=True,
                                chaos=plan))
            results.append((signature(out), tuple(stats.guard.faults)))
        assert results[0] == results[1]


# -- report integration -------------------------------------------------------

class TestGuardReporting:
    def test_guard_report_counts(self):
        report = GuardReport()
        report.add("degraded", "kernel", 0)
        report.add("skipped", "mspf", 0)
        report.add("rolled_back", "kernel", 1, counterexample={"inputs": []})
        report.add("checkpoint", "kernel", 0)
        assert (report.degradations, report.skips, report.rollbacks,
                report.checkpoints) == (1, 1, 1, 1)
        data = report.to_dict()
        assert data["rollbacks"] == 1
        assert data["events"][2]["detail"]["counterexample"] == {"inputs": []}

    def test_flow_registers_guard_report_in_session(self, tmp_path):
        from repro import obs
        from repro.obs.report import build_report, validate_report
        aig = make_random_aig(8, 120, seed=71)
        session = obs.enable()
        try:
            with cache_context(str(tmp_path / "c")):
                sbm_flow(aig, FlowConfig(iterations=1))
        finally:
            obs.disable()
        report = build_report(session, command="test")
        validate_report(report)
        assert len(report["guard"]) == 1
        assert report["version"] == 3
        assert report["guard"][0]["checkpoints"] == 9
        assert report["guard"][0]["replayed"] == 0

    def test_interrupted_flow_report_holds_its_flow(self, tmp_path, capsys):
        # The guard section describes a flow the report contains: the
        # rows the flow wrote before the interrupt, and no final row.
        import json
        from repro.__main__ import main as cli_main
        from repro.obs.report import validate_report
        path = str(tmp_path / "report.json")
        status = cli_main(["optimize", "router", "--chaos-interrupt", "3",
                           "--report-json", path])
        capsys.readouterr()
        assert status == 3
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        validate_report(report)
        assert len(report["flows"]) == len(report["guard"]) == 1
        names = [stage["name"] for stage in report["flows"][0]["stages"]]
        assert names[0] == "initial" and names[-1] == "mspf[1]"
        assert "final" not in names
        assert [event["kind"] for event in report["guard"][0]["events"]] \
            == ["interrupted"]


# -- CLI / config satellites --------------------------------------------------

class TestSatellites:
    def test_window_timeout_warns_once_when_serial(self):
        import repro.sbm.flow as flow_mod
        aig = make_random_aig(6, 60, seed=81)
        flow_mod._warned_inline_timeout = False
        try:
            config = FlowConfig(iterations=1, jobs=1, window_timeout_s=5.0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sbm_flow(aig, config)
                sbm_flow(aig, config)
            timeouts = [w for w in caught
                        if "window_timeout_s" in str(w.message)]
            assert len(timeouts) == 1  # one-time, not per-flow
        finally:
            flow_mod._warned_inline_timeout = False

    def test_window_timeout_on_a_pool_does_not_warn(self):
        # A campaign job runs jobs=1 on the campaign's pool, which
        # enforces the timeout: nothing is ignored, so nothing to warn of.
        import repro.sbm.flow as flow_mod
        from repro.campaign import CampaignJob, run_campaign
        job = CampaignJob("timed", "timed", FlowConfig(
            iterations=1, window_timeout_s=5.0),
            network=make_random_aig(6, 60, seed=81))
        flow_mod._warned_inline_timeout = False
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = run_campaign([job], workers=2)
            assert report.result("timed").outcome == "uncached"
            assert not [w for w in caught
                        if "window_timeout_s" in str(w.message)]
        finally:
            flow_mod._warned_inline_timeout = False

    def test_cli_chaos_and_checkpoint_flags(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        memo = str(tmp_path / "memo")
        status = cli_main(["optimize", "cavlc", "--chaos", "3",
                           "--cache-dir", memo, "--timeout", "600"])
        out = capsys.readouterr().out
        assert status == 0
        assert "verified=True" in out
        assert stage_entries(memo) == []  # a fault plan keeps the memo off
        status = cli_main(["optimize", "router", "--chaos-interrupt", "3",
                           "--cache-dir", memo])
        assert status == 3
        assert "interrupted after stage #3" in capsys.readouterr().out
        status = cli_main(["optimize", "router", "--cache-dir", memo])
        out = capsys.readouterr().out
        assert status == 0 and "verified=True" in out
        assert "guard : checkpoints=5 replayed=4" in out

    def test_cli_rejects_bad_guard_values(self):
        from repro.__main__ import main as cli_main
        with pytest.raises(SystemExit):
            cli_main(["optimize", "cavlc", "--timeout", "soon"])
        with pytest.raises(SystemExit):
            cli_main(["optimize", "cavlc", "--chaos", "tuesday"])
        with pytest.raises(SystemExit):
            cli_main(["optimize", "cavlc", "--timeout", "-5"])
        # Counts: a non-integer or a value below 1 exits with one line.
        for argv in (["campaign", "router", "--iterations", "abc"],
                     ["campaign", "router", "--iterations", "0"],
                     ["table3", "x"], ["table3", "0"]):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert isinstance(exc.value.code, str), argv
            assert "\n" not in exc.value.code, argv
