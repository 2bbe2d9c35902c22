"""Cross-run telemetry history: a SQLite store with regression detection.

Run reports (:mod:`repro.obs.report`, schema v3) describe *one* run; this
module keeps many of them, so quality and runtime can be tracked across
commits and a slow regression is caught by the nightly job instead of a
human staring at two JSON files.  Three tables:

``runs``
    one row per ingested report — suite, command, ``CODE_VERSION``
    (the flow's cache-key code revision), git revision, wall total,
    cache counters, and the fleet shard tag (``"i/N"``, comma-joined
    for merged multi-shard documents; NULL for unsharded runs);
``jobs``
    one row per campaign job — benchmark, outcome, content-addressed
    cache key, node counts before/after, wall and flow runtimes;
``stages``
    one row per flow stage of every job — per-stage node count and
    elapsed seconds (the per-benchmark × per-stage trend grain).

Ingestion is **idempotent**: the ingest key is the SHA-256 of the
canonicalized report document, enforced UNIQUE — re-ingesting the same
file is a counted no-op, so a retried CI job can never double-book a run.

Regression detection compares the *latest* run against the **median of a
trailing window** of prior runs, per benchmark and per (benchmark, stage):

* wall-time checks are **ratio-gated** (default 1.5×) with an absolute
  floor (default 0.05 s) so micro-stage jitter never fires, and only
  consider cold outcomes (``miss``/``uncached``) — a cache hit replays
  the cold run's stats, its timings are not this machine's;
* node-count checks are machine-independent and use a tight ratio
  (default 1.05×) with no floor — results are deterministic, any growth
  is a real quality regression.

CLI
---
::

    python -m repro.obs.history ingest  DB report.json [more.json|-]...
    python -m repro.obs.history trend   DB [--benchmark B] [--stage S] [--limit N]
    python -m repro.obs.history regress DB [--window N] [--time-ratio R]
                                           [--node-ratio R] [--min-secs S]

``ingest`` exits 0 (duplicates are reported, not errors), 1 on a schema
-invalid report, 3 on an unreadable file; ``regress`` exits 1 when a
regression is confirmed (the nightly gate), 0 when quiet or when there is
not enough history yet; usage errors exit 2.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import statistics
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.report import ReportSchemaError, validate_report

#: Outcomes whose timings were actually measured in that run (a ``hit``
#: or ``dedup`` row replays the cold run's stats — valid for node counts,
#: meaningless for this run's wall time).
_COLD_OUTCOMES = ("miss", "uncached")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    ingest_key  TEXT NOT NULL UNIQUE,
    ingested_at REAL NOT NULL,
    suite       TEXT NOT NULL,
    command     TEXT,
    code_version TEXT,
    git_rev     TEXT,
    schema_version INTEGER NOT NULL,
    elapsed_s   REAL NOT NULL DEFAULT 0.0,
    jobs        INTEGER NOT NULL DEFAULT 0,
    hits        INTEGER NOT NULL DEFAULT 0,
    misses      INTEGER NOT NULL DEFAULT 0,
    errors      INTEGER NOT NULL DEFAULT 0,
    shard       TEXT
);
CREATE TABLE IF NOT EXISTS jobs (
    run_id      INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    name        TEXT NOT NULL,
    benchmark   TEXT NOT NULL,
    outcome     TEXT NOT NULL,
    cache_key   TEXT,
    nodes_before INTEGER NOT NULL DEFAULT 0,
    nodes_after INTEGER NOT NULL DEFAULT 0,
    wall_s      REAL NOT NULL DEFAULT 0.0,
    flow_runtime_s REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS stages (
    run_id      INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    job_name    TEXT NOT NULL,
    benchmark   TEXT NOT NULL,
    outcome     TEXT NOT NULL,
    stage_index INTEGER NOT NULL,
    stage       TEXT NOT NULL,
    size        INTEGER NOT NULL DEFAULT 0,
    elapsed_s   REAL NOT NULL DEFAULT 0.0
);
CREATE INDEX IF NOT EXISTS idx_jobs_bench ON jobs(benchmark, run_id);
CREATE INDEX IF NOT EXISTS idx_stages_bench
    ON stages(benchmark, stage, run_id);
"""


def ingest_key_of(doc: Dict[str, Any]) -> str:
    """The idempotence key: SHA-256 over the canonicalized document.

    Delegates to :func:`repro.campaign.cache.canonical_digest` — the
    repo-wide canonical-JSON hash — producing byte-identical keys to the
    historical local implementation, so already-ingested reports still
    deduplicate.
    """
    from repro.campaign.cache import canonical_digest
    return canonical_digest(doc)


def detect_git_rev(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort short git revision of *cwd* (None when unavailable)."""
    import subprocess
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=cwd, capture_output=True, text=True,
                             timeout=10)
    except Exception:
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@dataclasses.dataclass
class Regression:
    """One confirmed latest-vs-trailing-median regression."""

    kind: str          #: ``job_time`` | ``job_nodes`` | ``stage_time`` | ``stage_nodes``
    benchmark: str
    stage: Optional[str]
    latest: float
    baseline: float    #: median of the trailing window
    ratio: float
    run_id: int
    samples: int       #: prior runs that contributed to the baseline

    def describe(self) -> str:
        unit = "s" if self.kind.endswith("_time") else " nodes"
        where = self.benchmark if self.stage is None \
            else f"{self.benchmark}/{self.stage}"
        if unit == "s":
            latest, baseline = f"{self.latest:.3f}s", f"{self.baseline:.3f}s"
        else:
            latest, baseline = f"{self.latest:.0f}", f"{self.baseline:.0f}"
        return (f"{self.kind:11s} {where:32s} {latest} vs median {baseline} "
                f"({self.ratio:.2f}x over {self.samples} run(s))")


class HistoryStore:
    """SQLite-backed store of ingested run reports (context manager)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.conn = sqlite3.connect(path)
        self.conn.executescript(_SCHEMA)
        # Shard tagging (repro.campaign.shard) arrived after the first
        # stores shipped: widen pre-existing DBs in place.
        columns = {row[1] for row in
                   self.conn.execute("PRAGMA table_info(runs)")}
        if "shard" not in columns:
            self.conn.execute("ALTER TABLE runs ADD COLUMN shard TEXT")
        self.conn.commit()

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- ingestion -----------------------------------------------------------

    def ingest(self, doc: Dict[str, Any],
               git_rev: Optional[str] = None) -> Optional[int]:
        """Validate and store one run-report document.

        Returns the new ``run_id``, or ``None`` when this exact document
        (by content hash) was ingested before.  Raises
        :class:`~repro.obs.report.ReportSchemaError` on an invalid report.
        """
        validate_report(doc)
        key = ingest_key_of(doc)
        campaigns = doc.get("campaign") or []
        suite = campaigns[0].get("suite", "adhoc") if campaigns else "adhoc"
        # Shard-plan tag: "i/N" per campaign section, comma-joined when a
        # merged document carries several shards' sections (the nightly
        # merge job's unified row).
        shard_labels = [
            f"{tag.get('index')}/{tag.get('count')}"
            for tag in (c.get("shard") for c in campaigns)
            if isinstance(tag, dict)]
        shard = ",".join(shard_labels) or None
        cur = self.conn.cursor()
        try:
            cur.execute(
                "INSERT INTO runs (ingest_key, ingested_at, suite, command,"
                " code_version, git_rev, schema_version, elapsed_s, jobs,"
                " hits, misses, errors, shard)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (key, time.time(), suite, doc.get("command"),
                 doc.get("code"), git_rev, int(doc.get("version", 0)),
                 float(sum(c.get("elapsed_s", 0.0) for c in campaigns)),
                 int(sum(c.get("jobs", 0) for c in campaigns)),
                 int(sum(c.get("hits", 0) for c in campaigns)),
                 int(sum(c.get("misses", 0) for c in campaigns)),
                 int(sum(c.get("errors", 0) for c in campaigns)), shard))
        except sqlite3.IntegrityError:
            return None
        run_id = int(cur.lastrowid)
        for campaign in campaigns:
            for job in campaign.get("jobs_detail", []):
                cur.execute(
                    "INSERT INTO jobs (run_id, name, benchmark, outcome,"
                    " cache_key, nodes_before, nodes_after, wall_s,"
                    " flow_runtime_s) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (run_id, job.get("name", "?"),
                     job.get("benchmark", "?"), job.get("outcome", "?"),
                     job.get("key"), int(job.get("nodes_before", 0)),
                     int(job.get("nodes_after", 0)),
                     float(job.get("wall_s", 0.0)),
                     float(job.get("flow_runtime_s", 0.0))))
                for index, stage in enumerate(job.get("stages") or []):
                    cur.execute(
                        "INSERT INTO stages (run_id, job_name, benchmark,"
                        " outcome, stage_index, stage, size, elapsed_s)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (run_id, job.get("name", "?"),
                         job.get("benchmark", "?"), job.get("outcome", "?"),
                         index, stage.get("name", "?"),
                         int(stage.get("size", 0)),
                         float(stage.get("elapsed_s", 0.0))))
        self.conn.commit()
        return run_id

    # -- queries -------------------------------------------------------------

    def run_count(self) -> int:
        return int(self.conn.execute("SELECT COUNT(*) FROM runs")
                   .fetchone()[0])

    def runs(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Newest-first run rows (dicts)."""
        cur = self.conn.execute(
            "SELECT run_id, suite, command, code_version, git_rev,"
            " elapsed_s, jobs, hits, misses, errors, ingested_at, shard"
            " FROM runs ORDER BY run_id DESC LIMIT ?", (limit,))
        cols = [d[0] for d in cur.description]
        return [dict(zip(cols, row)) for row in cur.fetchall()]

    def trend(self, benchmark: Optional[str] = None,
              stage: Optional[str] = None,
              limit: int = 10) -> List[Dict[str, Any]]:
        """Per-run samples for a benchmark (optionally one stage of it).

        Newest-first rows: ``run_id``, ``benchmark``, ``stage`` (None at
        job grain), ``nodes`` and the node delta vs the previous run,
        ``elapsed_s`` (0 for warm outcomes), ``outcome``.
        """
        if stage is not None:
            cur = self.conn.execute(
                "SELECT s.run_id, s.benchmark, s.stage, s.size,"
                " s.elapsed_s, s.outcome FROM stages s"
                " WHERE (? IS NULL OR s.benchmark = ?) AND s.stage = ?"
                " ORDER BY s.run_id DESC, s.benchmark, s.stage_index"
                " LIMIT ?",
                (benchmark, benchmark, stage, limit))
            rows = [{"run_id": r[0], "benchmark": r[1], "stage": r[2],
                     "nodes": r[3], "elapsed_s": r[4], "outcome": r[5]}
                    for r in cur.fetchall()]
        else:
            cur = self.conn.execute(
                "SELECT j.run_id, j.benchmark, j.nodes_after,"
                " j.flow_runtime_s, j.outcome FROM jobs j"
                " WHERE (? IS NULL OR j.benchmark = ?)"
                " ORDER BY j.run_id DESC, j.benchmark LIMIT ?",
                (benchmark, benchmark, limit))
            rows = [{"run_id": r[0], "benchmark": r[1], "stage": None,
                     "nodes": r[2], "elapsed_s": r[3], "outcome": r[4]}
                    for r in cur.fetchall()]
        # node delta vs the chronologically previous sample of the same series
        by_series: Dict[Any, List[Dict[str, Any]]] = {}
        for row in reversed(rows):                    # oldest first
            series = by_series.setdefault((row["benchmark"], row["stage"]),
                                          [])
            row["nodes_delta"] = (row["nodes"] - series[-1]["nodes"]
                                  if series else 0)
            series.append(row)
        return rows

    # -- regression detection ------------------------------------------------

    def regress(self, window: int = 5, time_ratio: float = 1.5,
                node_ratio: float = 1.05,
                min_secs: float = 0.05) -> List[Regression]:
        """Latest run vs the median of up to *window* prior runs.

        Returns one :class:`Regression` per confirmed finding; empty when
        quiet **or** when there is no prior history to compare against.
        """
        latest = self.conn.execute(
            "SELECT MAX(run_id) FROM runs").fetchone()[0]
        if latest is None:
            return []
        prior_ids = [r[0] for r in self.conn.execute(
            "SELECT run_id FROM runs WHERE run_id < ?"
            " ORDER BY run_id DESC LIMIT ?", (latest, window))]
        if not prior_ids:
            return []
        marks = ",".join("?" * len(prior_ids))
        findings: List[Regression] = []

        def check(kind: str, benchmark: str, stage: Optional[str],
                  value: float, baseline_values: List[float],
                  ratio_gate: float, floor: float) -> None:
            if not baseline_values:
                return
            baseline = float(statistics.median(baseline_values))
            if baseline <= 0:
                return
            if value > baseline * ratio_gate and value - baseline > floor:
                findings.append(Regression(
                    kind=kind, benchmark=benchmark, stage=stage,
                    latest=value, baseline=baseline,
                    ratio=value / baseline, run_id=int(latest),
                    samples=len(baseline_values)))

        # job grain -----------------------------------------------------------
        for bench, nodes, runtime, outcome in self.conn.execute(
                "SELECT benchmark, nodes_after, flow_runtime_s, outcome"
                " FROM jobs WHERE run_id = ?", (latest,)):
            prior_nodes = [r[0] for r in self.conn.execute(
                f"SELECT nodes_after FROM jobs WHERE benchmark = ?"
                f" AND run_id IN ({marks})", (bench, *prior_ids))]
            check("job_nodes", bench, None, float(nodes),
                  [float(v) for v in prior_nodes], node_ratio, 0.0)
            if outcome in _COLD_OUTCOMES:
                prior_times = [r[0] for r in self.conn.execute(
                    f"SELECT flow_runtime_s FROM jobs WHERE benchmark = ?"
                    f" AND outcome IN (?, ?) AND run_id IN ({marks})",
                    (bench, *_COLD_OUTCOMES, *prior_ids))]
                check("job_time", bench, None, float(runtime),
                      [float(v) for v in prior_times], time_ratio, min_secs)
        # stage grain ----------------------------------------------------------
        for bench, stage, size, elapsed, outcome in self.conn.execute(
                "SELECT benchmark, stage, size, elapsed_s, outcome"
                " FROM stages WHERE run_id = ?", (latest,)):
            prior_sizes = [r[0] for r in self.conn.execute(
                f"SELECT size FROM stages WHERE benchmark = ? AND stage = ?"
                f" AND run_id IN ({marks})", (bench, stage, *prior_ids))]
            check("stage_nodes", bench, stage, float(size),
                  [float(v) for v in prior_sizes], node_ratio, 0.0)
            if outcome in _COLD_OUTCOMES:
                prior_times = [r[0] for r in self.conn.execute(
                    f"SELECT elapsed_s FROM stages WHERE benchmark = ?"
                    f" AND stage = ? AND outcome IN (?, ?)"
                    f" AND run_id IN ({marks})",
                    (bench, stage, *_COLD_OUTCOMES, *prior_ids))]
                check("stage_time", bench, stage, float(elapsed),
                      [float(v) for v in prior_times], time_ratio, min_secs)
        findings.sort(key=lambda f: (-f.ratio, f.kind, f.benchmark,
                                     f.stage or ""))
        return findings


def wrap_campaign_report(campaign_doc: Dict[str, Any],
                         command: Optional[str] = None) -> Dict[str, Any]:
    """A minimal, schema-valid v3 run-report document around one campaign."""
    from repro.campaign.cache import CODE_VERSION
    return {
        "schema": "repro.obs/run-report",
        "version": 3,
        "command": command,
        "code": CODE_VERSION,
        "trace": [],
        "dropped_spans": 0,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "flows": [],
        "parallel_passes": [],
        "guard": [],
        "campaign": [campaign_doc],
    }


def ingest_campaign_report(db_path: str, report: Any) -> Optional[int]:
    """Ingest a finished :class:`~repro.campaign.runner.CampaignReport`.

    The campaign section is wrapped into a minimal run-report document;
    note the wrapper's content hash differs from a full ``--report-json``
    file of the same run, so use **one** ingest path per run (either this
    hook or an explicit ``history ingest`` of the report file, not both).
    """
    doc = wrap_campaign_report(report.to_dict())
    with HistoryStore(db_path) as store:
        return store.ingest(doc, git_rev=detect_git_rev())


# -- CLI -----------------------------------------------------------------------

_USAGE = """usage: python -m repro.obs.history <command> DB ...

  ingest  DB report.json [more.json|-]...   store run reports (idempotent)
  trend   DB [--benchmark B] [--stage S] [--limit N]
  regress DB [--window N] [--time-ratio R] [--node-ratio R] [--min-secs S]

regress exits 1 when a regression is confirmed, 0 when quiet."""


def _pop_value(args: List[str], flag: str,
               default: Optional[str] = None) -> Optional[str]:
    for i, arg in enumerate(args):
        if arg == flag:
            if i + 1 >= len(args):
                raise SystemExit(f"{flag} requires a value")
            value = args[i + 1]
            del args[i:i + 2]
            return value
        if arg.startswith(flag + "="):
            del args[i]
            return arg.split("=", 1)[1]
    return default


def _load_docs(paths: Iterable[str]):
    import sys
    for path in paths:
        if path == "-":
            yield path, json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                yield path, json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    import sys
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 2:
        print(_USAGE, file=sys.stderr)
        return 2
    command, db = args[0], args[1]
    rest = args[2:]
    if command == "ingest":
        if not rest:
            print(_USAGE, file=sys.stderr)
            return 2
        git_rev = _pop_value(rest, "--git-rev") or detect_git_rev()
        ingested = duplicates = 0
        with HistoryStore(db) as store:
            try:
                for path, doc in _load_docs(rest):
                    try:
                        run_id = store.ingest(doc, git_rev=git_rev)
                    except ReportSchemaError as exc:
                        print(f"{path}: SCHEMA ERROR: {exc}",
                              file=sys.stderr)
                        return 1
                    if run_id is None:
                        duplicates += 1
                        print(f"{path}: duplicate (already ingested)")
                    else:
                        ingested += 1
                        print(f"{path}: ingested as run #{run_id}")
            except (OSError, ValueError) as exc:
                print(f"cannot read report: {exc}", file=sys.stderr)
                return 3
            print(f"history: {ingested} ingested, {duplicates} duplicate(s),"
                  f" {store.run_count()} run(s) total in {db}")
        return 0
    if command == "trend":
        benchmark = _pop_value(rest, "--benchmark")
        stage = _pop_value(rest, "--stage")
        limit = int(_pop_value(rest, "--limit", "10") or 10)
        if rest:
            print(_USAGE, file=sys.stderr)
            return 2
        with HistoryStore(db) as store:
            rows = store.trend(benchmark=benchmark, stage=stage, limit=limit)
        if not rows:
            print("(no samples)")
            return 0
        print(f"{'run':>5s} {'benchmark':16s} {'stage':12s} {'nodes':>8s} "
              f"{'Δnodes':>7s} {'elapsed':>9s} outcome")
        for row in rows:
            print(f"{row['run_id']:5d} {row['benchmark']:16s} "
                  f"{(row['stage'] or '-'):12s} {row['nodes']:8d} "
                  f"{row['nodes_delta']:+7d} {row['elapsed_s']:8.3f}s "
                  f"{row['outcome']}")
        return 0
    if command == "regress":
        window = int(_pop_value(rest, "--window", "5") or 5)
        time_ratio = float(_pop_value(rest, "--time-ratio", "1.5") or 1.5)
        node_ratio = float(_pop_value(rest, "--node-ratio", "1.05") or 1.05)
        min_secs = float(_pop_value(rest, "--min-secs", "0.05") or 0.05)
        if rest:
            print(_USAGE, file=sys.stderr)
            return 2
        with HistoryStore(db) as store:
            total = store.run_count()
            findings = store.regress(window=window, time_ratio=time_ratio,
                                     node_ratio=node_ratio,
                                     min_secs=min_secs)
        if total < 2:
            print(f"regress: insufficient history ({total} run(s)) — "
                  f"nothing to compare")
            return 0
        if not findings:
            print(f"regress: quiet (latest run vs up to {window} prior, "
                  f"{total} run(s) in store)")
            return 0
        print(f"regress: {len(findings)} regression(s) confirmed:")
        for finding in findings:
            print(f"  {finding.describe()}")
        return 1
    print(_USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
