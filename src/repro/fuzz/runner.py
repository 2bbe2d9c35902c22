"""The fuzz campaign driver: budget in, verdicts + bundles + corpus out.

One :func:`run_fuzz` call is a first-class campaign citizen:

* recipes stream from :func:`repro.fuzz.generators.iter_recipes` (after
  replaying the persistent corpus, when one is configured);
* the run is a ``campaign`` span and every case a ``fuzz_case`` span
  under it (``fuzz_case_start`` / ``fuzz_case_end`` on the progress bus,
  the end carrying a failure's check, kind and fingerprint), so
  ``--progress`` and ``--progress-jsonl`` work exactly as they do for
  campaigns;
* the finished run is recorded as a campaign report
  (``suite = "fuzz:<name>"``, one ``jobs_detail`` row per case) — run
  reports validate against schema v3 unchanged and the telemetry
  history store ingests fuzz runs with no new code;
* failures are minimized, fingerprinted, deduplicated, and written as
  repro bundles; novel stage-coverage signatures grow the corpus.

Suite tiers live in ``suites/fuzz.toml`` (``[tiers.<name>]`` tables);
the CLI front door is ``python -m repro fuzz run`` in
:mod:`repro.__main__`.
"""

from __future__ import annotations

import dataclasses
import time
import tomllib
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.fuzz.generators import (GENERATOR_NAMES, MUTATION_BENCHMARKS,
                                   CaseRecipe, build_case, iter_recipes)
from repro.fuzz.minimize import minimize
from repro.fuzz.oracle import CaseResult, OracleConfig, run_case
from repro.fuzz.triage import (FailureBundle, FuzzCorpus, build_bundle,
                               write_bundle)

#: Minimizer predicate evaluations per failing case.
DEFAULT_MINIMIZE_EVALS = 120


@dataclasses.dataclass
class FuzzConfig:
    """One fuzz run: the budget, the seed, and the oracle shape."""

    budget: int = 100
    seed: int = 0xF022
    generators: Tuple[str, ...] = GENERATOR_NAMES
    benchmarks: Tuple[str, ...] = MUTATION_BENCHMARKS
    max_gates: int = 60               #: size cap fed to the generators
    oracle: OracleConfig = dataclasses.field(default_factory=OracleConfig)
    bundle_dir: Optional[str] = None  #: where failure bundles land
    corpus_dir: Optional[str] = None  #: persistent corpus (None = off)
    stop_after_failures: Optional[int] = None
    minimize_evals: int = DEFAULT_MINIMIZE_EVALS
    name: str = "adhoc"


@dataclasses.dataclass
class CaseRow:
    """Report row for one executed case (mirrors a campaign job row)."""

    index: int
    recipe: CaseRecipe
    verdict: CaseResult
    from_corpus: bool = False
    bundle_path: Optional[str] = None
    fingerprint: Optional[str] = None
    minimized_nodes: Optional[int] = None

    @property
    def name(self) -> str:
        return f"case-{self.index:04d}-{self.recipe.case_id}"


@dataclasses.dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    name: str = "adhoc"
    seed: int = 0
    budget: int = 0
    cases: List[CaseRow] = dataclasses.field(default_factory=list)
    corpus_replayed: int = 0
    corpus_added: int = 0
    bundles: List[str] = dataclasses.field(default_factory=list)
    fingerprints: List[str] = dataclasses.field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def executed(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> int:
        return sum(1 for row in self.cases if not row.verdict.ok)

    @property
    def unique_failures(self) -> int:
        return len(set(self.fingerprints))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed, "budget": self.budget,
                "executed": self.executed, "failures": self.failures,
                "unique_failures": self.unique_failures,
                "corpus_replayed": self.corpus_replayed,
                "corpus_added": self.corpus_added,
                "bundles": list(self.bundles),
                "fingerprints": list(self.fingerprints),
                "elapsed_s": self.elapsed_s,
                "cases": [{"name": row.name,
                           "recipe": row.recipe.to_dict(),
                           "from_corpus": row.from_corpus,
                           "verdict": row.verdict.to_dict(),
                           "fingerprint": row.fingerprint,
                           "minimized_nodes": row.minimized_nodes}
                          for row in self.cases]}


def load_fuzz_suite(path: str, tier: Optional[str] = None) -> FuzzConfig:
    """Build a :class:`FuzzConfig` from a ``suites/fuzz.toml`` tier.

    The file carries a ``name``, optional top-level defaults, and one
    ``[tiers.<name>]`` table per tier; *tier* defaults to the file's
    ``default_tier`` (or ``smoke``).
    """
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    tiers = data.get("tiers", {})
    tier = tier or str(data.get("default_tier", "smoke"))
    if tier not in tiers:
        raise ValueError(f"fuzz suite {path!r} has no tier {tier!r} "
                         f"(available: {sorted(tiers)})")
    entry: Dict[str, Any] = dict(data.get("defaults", {}))
    entry.update(tiers[tier])
    oracle = OracleConfig(
        iterations=int(entry.get("iterations", 1)),
        checks=tuple(entry.get("checks", ("cec", "jobs", "chaos"))),
        jobs=int(entry.get("oracle_jobs", 2)),
        chaos_seeds=tuple(int(s) for s in entry.get("chaos_seeds", (7,))),
        enable_simresub=bool(entry.get("enable_simresub", True)),
        case_timeout_s=entry.get("case_timeout_s"))
    return FuzzConfig(
        budget=int(entry.get("budget", 100)),
        seed=int(entry.get("seed", 0xF022)),
        generators=tuple(entry.get("generators", GENERATOR_NAMES)),
        benchmarks=tuple(entry.get("benchmarks", MUTATION_BENCHMARKS)),
        max_gates=int(entry.get("max_gates", 60)),
        oracle=oracle,
        minimize_evals=int(entry.get("minimize_evals",
                                     DEFAULT_MINIMIZE_EVALS)),
        name=f"{data.get('name', 'fuzz')}:{tier}")


def _failure_predicate(config: OracleConfig, expected_check: str,
                       expected_kind: str):
    """The minimizer predicate: the same primary failure still shows."""
    # Only the failing rung is re-run during shrinking — a cec failure
    # needs no jobs/chaos re-runs per candidate.
    reduced = dataclasses.replace(
        config, checks=(expected_check,) if expected_check in config.checks
        else config.checks, chaos_seeds=config.chaos_seeds[:1])

    def predicate(aig) -> bool:
        verdict = run_case(aig, reduced)
        primary = verdict.primary
        return (primary is not None and primary.check == expected_check
                and primary.kind == expected_kind)

    return predicate


def _campaign_report(report: FuzzReport, elapsed_s: float) -> Any:
    """The run's campaign-section twin: one job row per executed case."""
    from repro.campaign.runner import CampaignReport, JobResult
    campaign = CampaignReport(suite=f"fuzz:{report.name}")
    for row in report.cases:
        verdict = row.verdict
        primary = verdict.primary
        campaign.results.append(JobResult(
            name=row.name, benchmark=row.recipe.generator,
            outcome="error" if primary is not None else "uncached",
            wall_s=verdict.wall_s, flow_runtime_s=verdict.flow_runtime_s,
            nodes_before=verdict.nodes_before,
            nodes_after=verdict.nodes_after,
            error=(f"{primary.check}: {primary.kind}"
                   if primary is not None else None)))
        counter = "errors" if primary is not None else "uncached"
        setattr(campaign, counter, getattr(campaign, counter) + 1)
    campaign.elapsed_s = elapsed_s
    return campaign


def run_fuzz(config: FuzzConfig,
             history_db: Optional[str] = None) -> FuzzReport:
    """Execute one fuzz run; returns the report (and registers it)."""
    report = FuzzReport(name=config.name, seed=config.seed,
                        budget=config.budget)
    corpus = FuzzCorpus(config.corpus_dir) \
        if config.corpus_dir is not None else None
    pool = None
    if "jobs" in config.oracle.checks and config.oracle.jobs > 1:
        from repro.parallel.shared_pool import SharedProcessPool
        pool = SharedProcessPool(config.oracle.jobs)
    start = time.perf_counter()
    with obs.span("campaign", kind="campaign", suite=f"fuzz:{config.name}",
                  jobs=config.budget) as span:
        try:
            replayed = [(recipe, True) for recipe in
                        (corpus.recipes() if corpus is not None else [])]
            generated = [(recipe, False) for recipe in
                         iter_recipes(config.seed, config.budget,
                                      generators=config.generators,
                                      benchmarks=config.benchmarks,
                                      max_gates=config.max_gates)]
            for index, (recipe, from_corpus) in enumerate(replayed
                                                          + generated):
                if config.stop_after_failures is not None \
                        and report.failures >= config.stop_after_failures:
                    break
                row = _run_one(index, recipe, from_corpus, config, corpus,
                               pool)
                report.cases.append(row)
                if from_corpus:
                    report.corpus_replayed += 1
                if row.fingerprint is not None:
                    report.fingerprints.append(row.fingerprint)
                if row.bundle_path is not None:
                    report.bundles.append(row.bundle_path)
        finally:
            if pool is not None:
                pool.shutdown()
        report.elapsed_s = time.perf_counter() - start
        report.corpus_added = corpus.added if corpus is not None else 0
        span.set("uncached", report.executed - report.failures)
        span.set("errors", report.failures)
    campaign = _campaign_report(report, report.elapsed_s)
    obs.record_campaign_report(campaign)
    if history_db is not None:
        # Best-effort bookkeeping, exactly like campaign runs: a locked
        # or corrupt store must never turn a finished fuzz run into a
        # failure.
        try:
            from repro.obs.history import ingest_campaign_report
            ingest_campaign_report(history_db, campaign)
        except Exception as exc:
            import sys
            print(f"history ingest failed ({history_db}): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return report


def _run_one(index: int, recipe: CaseRecipe, from_corpus: bool,
             config: FuzzConfig, corpus: Optional[FuzzCorpus],
             pool: Any) -> CaseRow:
    """Generate, judge, and (on failure) minimize + bundle one case."""
    with obs.span(f"case[{index}]", kind="fuzz_case", index=index,
                  case=recipe.case_id, generator=recipe.generator,
                  from_corpus=from_corpus) as span:
        network = build_case(recipe)
        verdict = run_case(network, config.oracle, pool=pool)
        row = CaseRow(index=index, recipe=recipe, verdict=verdict,
                      from_corpus=from_corpus)
        if corpus is not None and not from_corpus:
            corpus.add_if_novel(recipe, verdict.signature)
        primary = verdict.primary
        if primary is None:
            return row
        minimized = None
        try:
            shrunk = minimize(network,
                              _failure_predicate(config.oracle,
                                                 primary.check,
                                                 primary.kind),
                              max_evals=config.minimize_evals)
            minimized = shrunk.network
            row.minimized_nodes = shrunk.nodes_after
        except ValueError:
            # The failure did not reproduce under the reduced predicate
            # (flaky verdict) — bundle the original network unminimized.
            pass
        bundle = build_bundle(recipe, config.oracle, network, verdict,
                              minimized)
        row.fingerprint = bundle.fingerprint
        if config.bundle_dir is not None:
            row.bundle_path, _new = write_bundle(config.bundle_dir, bundle)
        span.set("check", primary.check)
        span.set("failure", primary.kind)
        span.set("fingerprint", bundle.fingerprint)
    return row
