"""Tests for repro.fuzz: generators, oracle rungs, minimizer, triage,
and the acceptance criteria from the fuzzing issue (soundness on an
injected bug, bounded minimization, one-command bundle replay, and a
deterministic clean run)."""

import json
import os
import subprocess
import sys

import pytest

from repro.aig.aig import Aig
from repro.fuzz import (CaseRecipe, FuzzConfig, OracleConfig, build_case,
                        iter_recipes, load_bundle, load_fuzz_suite, minimize,
                        replay_bundle, run_case, run_fuzz, write_bundle)
from repro.fuzz import faults
from repro.fuzz.generators import (GENERATOR_NAMES, MUTATION_OPS,
                                   build_case as _build_case)
from repro.fuzz.oracle import network_key
from repro.fuzz.triage import FuzzCorpus, build_bundle
from repro.parallel.window_io import CompactAig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fast oracle: CEC only, no jobs/chaos re-runs.
CEC_ONLY = OracleConfig(checks=("cec",))

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
    """Each injected fault kind trips exactly its own oracle rung."""

    def test_clean_network_passes(self):
        verdict = run_case(_tiny_network(), CEC_ONLY)
        assert verdict.ok
        assert verdict.primary is None
        assert verdict.signature

    def test_flip_po_trips_cec(self):
        with faults.injected("flip-po:1"):
            verdict = run_case(_tiny_network(), CEC_ONLY)
        primary = verdict.primary
        assert primary is not None and primary.check == "cec"
        assert primary.kind == "EquivalenceError"
        assert primary.stage == "final"
        assert primary.cex is not None

    def test_crash_trips_crash_rung(self):
        with faults.injected("crash:1"):
            verdict = run_case(_tiny_network(), CEC_ONLY)
        primary = verdict.primary
        assert primary is not None and primary.check == "crash"
        assert primary.kind == "RuntimeError"

    @pytest.mark.parametrize("name", ["cecc", "hotpath"])
    def test_unknown_check_names_rejected(self, name):
        # A misspelt or retired rung must fail loudly, not silently skip
        # the check it names (a "cecc" rung would pass a flipped PO).
        with pytest.raises(ValueError, match=repr(name)):
            OracleConfig(checks=(name,))
        with pytest.raises(ValueError, match=repr(name)):
            OracleConfig.from_dict({"checks": ["cec", name]})

    def test_jobs_flip_trips_only_jobs(self):
        config = OracleConfig(checks=("cec", "jobs"), jobs=2)
        with faults.injected("jobs-flip:1"):
            verdict = run_case(_tiny_network(), config)
        checks = [f.check for f in verdict.failures]
        assert checks == ["jobs"]
        assert verdict.failures[0].kind == "JobsDivergence"

    def test_threshold_gates_the_fault(self):
        with faults.injected("flip-po:9999"):
            verdict = run_case(_tiny_network(), CEC_ONLY)
        assert verdict.ok


class TestFaultSpecs:
    def test_parse_round_trip(self):
        for kind in faults.FAULT_KINDS:
            fault = faults.InjectedFault.parse(f"{kind}:3")
            assert fault.kind == kind and fault.threshold == 3
            assert fault.spec == f"{kind}:3"

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            faults.InjectedFault.parse("frobnicate:1")

    def test_env_var_installs_fault(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "crash:5")
        active = faults.active()
        assert active is not None and active.spec == "crash:5"
        # A programmatic fault wins over the environment.
        with faults.injected("flip-po:1") as fault:
            assert faults.active() is fault
        assert faults.active().spec == "crash:5"

    def test_injected_none_is_noop(self):
        with faults.injected(None) as fault:
            assert fault is None
            assert faults.active() is None


class TestMinimizer:
    def _failing_setup(self):
        from tests.conftest import make_random_aig
        aig = make_random_aig(5, 40, seed=11)

        def predicate(candidate):
            with faults.injected("flip-po:2"):
                verdict = run_case(candidate, CEC_ONLY)
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
    """Acceptance: an injected bug is found within a fixed-seed budget,
    minimized, bundled, and reproduced — from the bundle alone."""

    def test_injected_bug_found_minimized_and_replayed(self, tmp_path):
        bundle_dir = str(tmp_path / "bundles")
        with faults.injected("flip-po:2"):
            report = run_fuzz(_fast_config(budget=500, seed=99,
                                           bundle_dir=bundle_dir,
                                           stop_after_failures=1))
        assert report.failures == 1
        assert len(report.bundles) == 1
        row = next(r for r in report.cases if not r.verdict.ok)
        assert row.minimized_nodes is not None
        assert row.minimized_nodes <= max(2, row.verdict.nodes_before // 4)

        bundle = load_bundle(report.bundles[0])
        assert bundle.injected == "flip-po:2"
        assert bundle.fingerprint == row.fingerprint
        replay = replay_bundle(bundle)
        assert replay.reproduced
        assert replay.verdict.primary.check == "cec"

    def test_cli_repro_from_bundle_alone(self, tmp_path):
        bundle_dir = str(tmp_path / "bundles")
        with faults.injected("flip-po:2"):
            report = run_fuzz(_fast_config(budget=500, seed=99,
                                           bundle_dir=bundle_dir,
                                           stop_after_failures=1))
        assert report.bundles
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO, "src"))
        env.pop(faults.ENV_VAR, None)  # the bundle alone must suffice
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "repro",
             report.bundles[0]],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "REPRODUCED" in proc.stdout


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
        with faults.injected("flip-po:1"):
            verdict = run_case(network, CEC_ONLY)
            return build_bundle(recipe, CEC_ONLY, network, verdict, None)

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
        assert loaded.injected == bundle.injected == "flip-po:1"
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["schema"] == "repro.fuzz/bundle-v1"

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
