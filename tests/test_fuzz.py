"""Tests for repro.fuzz: generators, oracle rungs, minimizer, triage,
and the fuzzer's acceptance criteria (soundness on a planted bug,
bounded minimization, one-command bundle replay, and a deterministic
clean run)."""

import json
import os
import subprocess
import sys

import pytest

from repro.aig.aig import Aig
from repro.fuzz import (CaseRecipe, FuzzConfig, OracleConfig, build_case,
                        iter_recipes, load_bundle, load_fuzz_suite, minimize,
                        replay_bundle, run_case, run_fuzz, write_bundle)
from repro.fuzz import oracle
from repro.fuzz.generators import (GENERATOR_NAMES, MUTATION_OPS,
                                   build_case as _build_case)
from repro.fuzz.oracle import network_key
from repro.fuzz.triage import FuzzCorpus, build_bundle
from repro.parallel.window_io import CompactAig

from tests.conftest import make_random_aig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fast oracle: CEC only, no jobs/chaos re-runs.
CEC_ONLY = OracleConfig(checks=("cec",))

#: The planted bug: PO 0 of the first stage's (aig_script's) result
#: complemented, as ``FaultPlan`` keyword arguments.
FLIP_AIG_SCRIPT = {"seed": 0, "rate": 0.0,
                   "forced": {"stage:0:aig_script": "corrupt-result"}}

#: CEC-only oracle over the deliberately broken flow.
PLANTED = OracleConfig(checks=("cec",), faults=FLIP_AIG_SCRIPT)

#: Fast generator mix: skip the (slower) EPFL mutants.
FAST_GENS = ("random-aig", "random-sop")


def _fast_config(**overrides):
    defaults = dict(budget=4, seed=1234, generators=FAST_GENS,
                    max_gates=25, oracle=CEC_ONLY)
    defaults.update(overrides)
    return FuzzConfig(**defaults)


def _tiny_network(num_ands=6):
    aig = Aig("tiny")
    a, b, c = aig.add_pis(3)
    literals = [a, b, c]
    for i in range(num_ands):
        literals.append(aig.add_and(literals[-1], literals[i % 3] ^ (i & 1)))
    aig.add_po(literals[-1])
    aig.add_po(literals[-2] ^ 1)
    return aig.cleanup()


def _flip_po_after_flow(monkeypatch, when=lambda config: True):
    """Complement PO 0 of every oracle flow result whose config satisfies
    *when*: a corruption outside every stage."""
    real_flow = oracle.sbm_flow

    def flipped(aig, config):
        result, stats = real_flow(aig, config)
        if when(config):
            result = result.cleanup()
            result.set_po(0, result.pos()[0] ^ 1)
        return result, stats

    monkeypatch.setattr(oracle, "sbm_flow", flipped)


@pytest.fixture(scope="module")
def planted_report(tmp_path_factory):
    """The soundness drive: the first planted-bug failure, bundled."""
    bundle_dir = str(tmp_path_factory.mktemp("planted") / "bundles")
    return run_fuzz(_fast_config(budget=500, seed=99, oracle=PLANTED,
                                 bundle_dir=bundle_dir,
                                 stop_after_failures=1))


class TestGenerators:
    def test_recipes_are_deterministic_and_bounded(self):
        first = list(iter_recipes(42, 30))
        second = list(iter_recipes(42, 30))
        assert [r.canonical() for r in first] == \
            [r.canonical() for r in second]
        assert len(first) == 30
        assert all(r.generator in GENERATOR_NAMES for r in first)

    def test_different_seed_different_recipes(self):
        a = [r.canonical() for r in iter_recipes(1, 10)]
        b = [r.canonical() for r in iter_recipes(2, 10)]
        assert a != b

    def test_built_cases_are_valid_and_deterministic(self):
        for recipe in iter_recipes(7, 12, max_gates=30):
            aig = build_case(recipe)
            aig.check()
            assert aig.num_pos > 0
            assert network_key(aig) == network_key(_build_case(recipe))

    def test_recipe_round_trips_through_dict(self):
        for recipe in iter_recipes(3, 6):
            back = CaseRecipe.from_dict(recipe.to_dict())
            assert back.canonical() == recipe.canonical()
            assert back.case_id == recipe.case_id

    def test_every_mutator_yields_a_buildable_network(self):
        import random
        from repro.bench.registry import get_benchmark
        from repro.fuzz.generators import _MUTATORS
        assert set(_MUTATORS) == set(MUTATION_OPS)
        base = CompactAig.from_aig(get_benchmark("router", scaled=True))
        for op, mutate in _MUTATORS.items():
            mutated = mutate(random.Random(13), base)
            aig = mutated.to_aig()
            aig.check()
            again = mutate(random.Random(13), base)
            assert again.gates == mutated.gates, op

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            build_case(CaseRecipe("no-such-generator", 0, {}))


class TestOracleRungs:
    """Each planted fault trips exactly its own oracle rung."""

    def test_clean_network_passes(self):
        verdict = run_case(_tiny_network(), CEC_ONLY)
        assert verdict.ok
        assert verdict.primary is None
        assert verdict.signature

    def test_flip_po_trips_cec(self):
        config = OracleConfig(checks=("cec", "jobs"), jobs=2,
                              faults=FLIP_AIG_SCRIPT)
        verdict = run_case(_tiny_network(), config)
        assert [f.check for f in verdict.failures] == ["cec"]
        primary = verdict.primary
        assert primary.kind == "EquivalenceError"
        # The guarded re-run rolls the corrupted stage back: blamed on it.
        assert primary.stage == "aig_script"
        assert primary.cex is not None

    def test_corruption_outside_every_stage_is_blamed_on_final(
            self, monkeypatch):
        _flip_po_after_flow(monkeypatch)
        verdict = run_case(_tiny_network(), CEC_ONLY)
        primary = verdict.primary
        assert primary is not None and primary.check == "cec"
        assert primary.stage == "final"

    def test_crash_trips_crash_rung(self):
        config = OracleConfig(checks=("cec", "jobs"), jobs=2,
                              faults={"seed": 0, "rate": 0.0,
                                      "interrupt_after": 0})
        verdict = run_case(_tiny_network(), config)
        assert [f.check for f in verdict.failures] == ["crash"]
        assert verdict.primary.kind == "ChaosInterrupt"

    @pytest.mark.parametrize("name", ["cecc", "hotpath"])
    def test_unknown_check_names_rejected(self, name):
        # A misspelt or retired rung must fail loudly, not silently skip
        # the check it names (a "cecc" rung would pass a flipped PO).
        with pytest.raises(ValueError, match=repr(name)):
            OracleConfig(checks=(name,))
        with pytest.raises(ValueError, match=repr(name)):
            OracleConfig.from_dict({"checks": ["cec", name]})

    def test_jobs_flip_trips_only_jobs(self, monkeypatch):
        # A FaultPlan cannot depend on jobs (window faults are drawn in
        # the parent), so this fault is a patch on the oracle's flow.
        _flip_po_after_flow(monkeypatch, when=lambda config: config.jobs > 1)
        config = OracleConfig(checks=("cec", "jobs"), jobs=2)
        verdict = run_case(_tiny_network(), config)
        checks = [f.check for f in verdict.failures]
        assert checks == ["jobs"]
        assert verdict.failures[0].kind == "JobsDivergence"

    @pytest.mark.parametrize("faults", [
        {"seed": 0, "frobnicate": 1},                  # unknown key
        {"seed": 0, "forced": {"x": "frobnicate"}},    # unknown kind
        "flip-po:1",                                   # not a mapping
    ])
    def test_bad_fault_plan_rejected(self, faults):
        with pytest.raises(ValueError, match="fault"):
            OracleConfig(faults=faults)
        with pytest.raises(ValueError, match="fault"):
            OracleConfig.from_dict({"checks": ["cec"], "faults": faults})

    def test_faults_round_trip_through_dict(self):
        data = json.loads(json.dumps(PLANTED.to_dict()))
        assert OracleConfig.from_dict(data) == PLANTED
        assert data["faults"] == FLIP_AIG_SCRIPT
        assert OracleConfig.from_dict({"checks": ["cec"]}).faults is None

    def test_old_bundle_exhaustive_limit_is_ignored(self):
        # Bundles once carried a CEC exhaustive-simulation cutoff; above 24
        # inputs it sent wide cases to complete simulation, which raised.
        config = OracleConfig.from_dict({"checks": ["cec"],
                                         "exhaustive_limit": 30})
        verdict = run_case(make_random_aig(26, 40, 1), config)
        assert verdict.ok and verdict.primary is None
        assert "exhaustive_limit" not in config.to_dict()

    def test_missing_keys_take_the_constructor_defaults(self, tmp_path):
        assert OracleConfig.from_dict({}) == OracleConfig()
        suite = tmp_path / "fuzz.toml"
        suite.write_text("[tiers.bare]\nbudget = 1\n")
        assert load_fuzz_suite(str(suite), tier="bare").oracle \
            == OracleConfig()

    def test_old_bundle_chaos_rates_are_ignored(self):
        # The chaos rung's rates were once config fields; they are fixed.
        config = OracleConfig.from_dict({"checks": ["chaos"],
                                         "chaos_seeds": [7],
                                         "chaos_rate": 0.5,
                                         "stage_corrupt_rate": 0.5})
        assert config == OracleConfig(checks=("chaos",))
        assert "chaos_rate" not in config.to_dict()


class TestMinimizer:
    def _failing_setup(self):
        aig = make_random_aig(5, 40, seed=11)

        def predicate(candidate):
            verdict = run_case(candidate, PLANTED)
            primary = verdict.primary
            return primary is not None and primary.check == "cec"

        return aig, predicate

    def test_shrinks_to_quarter_and_preserves_failure(self):
        aig, predicate = self._failing_setup()
        result = minimize(aig, predicate, max_evals=150)
        assert result.nodes_after <= max(2, result.nodes_before // 4)
        assert predicate(result.network)
        assert result.ratio <= 0.25 or result.nodes_after <= 2

    def test_minimization_is_deterministic(self):
        aig, predicate = self._failing_setup()
        first = minimize(aig, predicate, max_evals=150)
        second = minimize(aig, predicate, max_evals=150)
        assert CompactAig.from_aig(first.network).gates == \
            CompactAig.from_aig(second.network).gates

    def test_rejects_non_failing_input(self):
        with pytest.raises(ValueError):
            minimize(_tiny_network(), lambda a: False)


class TestSoundnessLoop:
    """Acceptance: a planted bug is found within a fixed-seed budget,
    minimized, bundled, and reproduced — from the bundle alone."""

    def test_injected_bug_found_minimized_and_replayed(self, planted_report):
        report = planted_report
        assert report.failures == 1
        assert len(report.bundles) == 1
        row = next(r for r in report.cases if not r.verdict.ok)
        assert row.minimized_nodes is not None
        assert row.minimized_nodes <= max(2, row.verdict.nodes_before // 4)

        bundle = load_bundle(report.bundles[0])
        assert bundle.oracle["faults"] == FLIP_AIG_SCRIPT
        assert bundle.fingerprint == row.fingerprint
        replay = replay_bundle(bundle)
        assert replay.reproduced
        assert replay.verdict.primary.check == "cec"
        assert replay.verdict.primary.stage == "aig_script"

    def test_cli_repro_from_bundle_alone(self, planted_report):
        assert planted_report.bundles
        # The bundle alone must suffice: no other environment at all.
        env = {"PYTHONPATH": os.path.join(REPO, "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "repro",
             planted_report.bundles[0]],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verdict  : REPRODUCED" in proc.stdout
        assert '"stage:0:aig_script": "corrupt-result"' in proc.stdout

    def test_cli_repro_original_network(self, planted_report, capsys):
        from repro.__main__ import main as cli_main
        status = cli_main(["fuzz", "repro", "--original",
                           planted_report.bundles[0]])
        assert status == 0
        assert "verdict  : REPRODUCED" in capsys.readouterr().out

    @pytest.mark.parametrize("faults", [
        {"seed": 0, "frobnicate": 1},
        {"seed": 0, "forced": {"stage:0:aig_script": "frobnicate"}},
    ])
    def test_cli_repro_rejects_bad_fault_plan(self, planted_report, tmp_path,
                                              capsys, faults):
        from repro.__main__ import main as cli_main
        with open(planted_report.bundles[0], "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["oracle"]["faults"] = faults
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli_main(["fuzz", "repro", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("unreadable bundle")
        assert len(out.splitlines()) == 1


class TestCleanRunDeterminism:
    """Acceptance: a clean run has zero failures and two runs with the
    same seed produce byte-identical recipes."""

    def test_two_runs_agree(self):
        first = run_fuzz(_fast_config(budget=6, seed=2026))
        second = run_fuzz(_fast_config(budget=6, seed=2026))
        assert first.failures == 0 and second.failures == 0
        assert [r.recipe.canonical() for r in first.cases] == \
            [r.recipe.canonical() for r in second.cases]
        assert [r.verdict.signature for r in first.cases] == \
            [r.verdict.signature for r in second.cases]


class TestTriage:
    def _bundle(self):
        recipe = next(iter(iter_recipes(5, 1, generators=FAST_GENS)))
        network = build_case(recipe)
        verdict = run_case(network, PLANTED)
        return build_bundle(recipe, PLANTED, network, verdict, None)

    def test_write_bundle_deduplicates(self, tmp_path):
        bundle = self._bundle()
        path, new = write_bundle(str(tmp_path), bundle)
        again, renew = write_bundle(str(tmp_path), bundle)
        assert new and not renew
        assert path == again
        assert len(list(tmp_path.iterdir())) == 1
        assert bundle.fingerprint in os.path.basename(path)

    def test_bundle_json_round_trip(self, tmp_path):
        bundle = self._bundle()
        path, _ = write_bundle(str(tmp_path), bundle)
        loaded = load_bundle(path)
        assert loaded.fingerprint == bundle.fingerprint
        assert CaseRecipe.from_dict(loaded.recipe).canonical() == \
            CaseRecipe.from_dict(bundle.recipe).canonical()
        assert loaded.oracle == bundle.oracle == PLANTED.to_dict()
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["schema"] == "repro.fuzz/bundle-v1"
        assert "injected" not in data

    def test_corpus_keeps_only_novel_signatures(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        config = _fast_config(budget=4, seed=77, corpus_dir=corpus_dir)
        first = run_fuzz(config)
        assert first.failures == 0
        assert first.corpus_added >= 1
        second = run_fuzz(config)
        assert second.corpus_replayed == first.corpus_added
        assert second.corpus_added == 0

    def test_unwritable_corpus_degrades_to_memory(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        corpus = FuzzCorpus(str(blocked / "corpus"))
        recipe = next(iter(iter_recipes(5, 1, generators=FAST_GENS)))
        # Nothing persists, but in-run novelty dedup keeps working.
        assert not corpus.add_if_novel(recipe, "sig-a")
        assert len(corpus) == 1
        assert not corpus.add_if_novel(recipe, "sig-a")
        assert corpus.added == 0


class TestSuiteLoading:
    def test_repo_fuzz_suite_tiers(self):
        path = os.path.join(REPO, "suites", "fuzz.toml")
        smoke = load_fuzz_suite(path, "smoke")
        assert smoke.name == "fuzz:smoke"
        assert smoke.budget == 200
        assert smoke.oracle.checks == ("cec",)
        nightly = load_fuzz_suite(path, "nightly")
        assert nightly.budget > smoke.budget
        assert nightly.oracle.checks == ("cec", "jobs", "chaos")
        # The file's default tier resolves without naming one.
        assert load_fuzz_suite(path).name == "fuzz:smoke"
        assert smoke.oracle.faults is None and nightly.oracle.faults is None
        soundness = load_fuzz_suite(path, "soundness")
        assert soundness.oracle.checks == ("cec",)
        assert soundness.oracle.faults == FLIP_AIG_SCRIPT
        assert soundness.budget <= smoke.budget

    def test_unknown_tier_rejected(self):
        path = os.path.join(REPO, "suites", "fuzz.toml")
        with pytest.raises(ValueError):
            load_fuzz_suite(path, "no-such-tier")

    def test_unknown_check_in_suite_rejected(self, tmp_path):
        path = tmp_path / "fuzz.toml"
        path.write_text('[tiers.smoke]\nchecks = ["cec", "hotpath"]\n')
        with pytest.raises(ValueError, match="'hotpath'"):
            load_fuzz_suite(str(path), "smoke")


class TestCampaignCitizenship:
    def test_fuzz_run_records_campaign_report(self, tmp_path):
        from repro import obs
        db = str(tmp_path / "telemetry.db")
        session = obs.enable()
        try:
            report = run_fuzz(_fast_config(budget=2, seed=5),
                              history_db=db)
        finally:
            obs.disable()
        assert report.executed == 2
        assert len(session.campaign_reports) == 1
        campaign = session.campaign_reports[0]
        assert campaign.suite == "fuzz:adhoc"
        assert len(campaign.results) == 2
        from repro.obs.history import HistoryStore
        with HistoryStore(db) as store:
            assert store.run_count() == 1
