"""Machine-readable run reports over the observability store.

One enabled run produces one report from its session (the root
:class:`repro.obs.Scope`): the span tree, the metrics registry, and every
``FlowStats``, ``ParallelReport`` and ``CampaignReport`` handed to it —
the telemetry becomes views over this single store (``guard[i]`` is
``flows[i]``'s ``FlowStats.guard``).  The JSON
layout is a **stable schema** (``schema``/``version`` keys, validated by
:func:`validate_report`); consumers can rely on it across releases, and CI
runs the validator on a real flow report so schema drift fails the build.

``python -m repro.obs.report <path.json>`` validates a report file and
prints its trace table — the check CI runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

SCHEMA_NAME = "repro.obs/run-report"
#: v1 — trace/metrics/flows/parallel_passes.
#: v2 — adds the ``guard`` section (repro.guard: degradations, rollbacks,
#:      checkpoints, injected faults).  v1 reports still validate.
#: v3 — adds the ``campaign`` section (repro.campaign: per-job cache
#:      hit/miss/dedup outcomes, stolen windows, summed parallel
#:      telemetry, wall/CPU totals).  v1/v2 reports still validate.
SCHEMA_VERSION = 3


class ReportSchemaError(ValueError):
    """A run report does not conform to the published schema."""


# -- building -----------------------------------------------------------------

def build_report(session, command: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the JSON-safe run report from an ObsSession."""
    from repro.campaign.cache import CODE_VERSION
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "command": command,
        # optional since v3: the flow's cache-key code revision, so the
        # telemetry history store can attribute runs to code versions
        "code": CODE_VERSION,
        "trace": [span.to_dict() for span in session.tracer.roots],
        "dropped_spans": session.tracer.dropped_spans,
        "metrics": session.metrics.to_dict(),
        "flows": [stats.to_dict() for stats in session.flow_stats],
        "parallel_passes": [report.to_dict()
                            for report in session.parallel_reports],
        "guard": [stats.guard.to_dict() for stats in session.flow_stats],
        "campaign": [report.to_dict()
                     for report in session.campaign_reports],
    }


def write_report(path: str, report: Dict[str, Any]) -> None:
    """Write a report as pretty-printed, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- validation ---------------------------------------------------------------

def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ReportSchemaError(f"{where}: {message}")


def _check_number(value: Any, where: str) -> None:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            where, f"expected a number, got {value!r}")


def _check_span(span: Any, where: str) -> None:
    _expect(isinstance(span, dict), where, "span must be an object")
    for key, kind in (("name", str), ("kind", str), ("attrs", dict),
                      ("events", list), ("children", list)):
        _expect(key in span, where, f"span missing {key!r}")
        _expect(isinstance(span[key], kind), where,
                f"span {key!r} must be {kind.__name__}")
    _check_number(span.get("wall_s"), f"{where}.wall_s")
    _check_number(span.get("cpu_s"), f"{where}.cpu_s")
    for event in span["events"]:
        _expect(isinstance(event, dict) and isinstance(event.get("name"), str),
                where, "span events must be objects with a 'name'")
    for i, child in enumerate(span["children"]):
        _check_span(child, f"{where}.children[{i}]")


def _check_metrics(metrics: Any, where: str) -> None:
    _expect(isinstance(metrics, dict), where, "metrics must be an object")
    for section in ("counters", "gauges", "histograms"):
        _expect(isinstance(metrics.get(section), dict), where,
                f"metrics.{section} must be an object")
    for key, value in metrics["counters"].items():
        _check_number(value, f"{where}.counters[{key!r}]")
    for key, value in metrics["gauges"].items():
        _check_number(value, f"{where}.gauges[{key!r}]")
    for key, hist in metrics["histograms"].items():
        _expect(isinstance(hist, dict), where,
                f"histograms[{key!r}] must be an object")
        for stat in ("count", "sum", "min", "max", "mean"):
            _check_number(hist.get(stat),
                          f"{where}.histograms[{key!r}].{stat}")


def _check_flow(flow: Any, where: str) -> None:
    _expect(isinstance(flow, dict), where, "flow must be an object")
    _check_number(flow.get("runtime_s"), f"{where}.runtime_s")
    _expect(isinstance(flow.get("stages"), list), where,
            "flow.stages must be a list")
    for i, stage in enumerate(flow["stages"]):
        at = f"{where}.stages[{i}]"
        _expect(isinstance(stage, dict), at, "stage must be an object")
        _expect(isinstance(stage.get("name"), str), at,
                "stage.name must be a string")
        _check_number(stage.get("size"), f"{at}.size")
        _check_number(stage.get("elapsed_s"), f"{at}.elapsed_s")


def _check_parallel(entry: Any, where: str) -> None:
    _expect(isinstance(entry, dict), where,
            "parallel pass must be an object")
    _expect(isinstance(entry.get("engine"), str), where,
            "engine must be a string")
    for key in ("jobs", "num_windows", "num_applied", "num_fallbacks",
                "pool_restarts", "total_gain"):
        _check_number(entry.get(key), f"{where}.{key}")
    for key in ("elapsed_s", "worker_wall_s", "useful_worker_wall_s",
                "speedup"):
        _check_number(entry.get(key), f"{where}.{key}")
    _expect(isinstance(entry.get("fallback_reasons"), dict), where,
            "fallback_reasons must be an object")
    _expect(isinstance(entry.get("windows"), list), where,
            "windows must be a list")
    for i, window in enumerate(entry["windows"]):
        at = f"{where}.windows[{i}]"
        _expect(isinstance(window, dict), at, "window must be an object")
        for key in ("index", "size", "leaves", "wall_s", "gain"):
            _check_number(window.get(key), f"{at}.{key}")
        _expect(isinstance(window.get("applied"), bool), at,
                "applied must be a bool")


def _check_guard(entry: Any, where: str) -> None:
    _expect(isinstance(entry, dict), where, "guard entry must be an object")
    for key in ("rollbacks", "degradations", "skips", "checkpoints"):
        _check_number(entry.get(key), f"{where}.{key}")
    _expect(isinstance(entry.get("faults"), list), where,
            "faults must be a list")
    for i, fault in enumerate(entry["faults"]):
        at = f"{where}.faults[{i}]"
        _expect(isinstance(fault, dict), at, "fault must be an object")
        _expect(isinstance(fault.get("site"), str), at,
                "fault.site must be a string")
        _expect(isinstance(fault.get("kind"), str), at,
                "fault.kind must be a string")
    _expect(isinstance(entry.get("events"), list), where,
            "events must be a list")
    for i, event in enumerate(entry["events"]):
        at = f"{where}.events[{i}]"
        _expect(isinstance(event, dict), at, "event must be an object")
        _expect(isinstance(event.get("kind"), str), at,
                "event.kind must be a string")
        _expect(isinstance(event.get("stage"), str), at,
                "event.stage must be a string")
        _expect(isinstance(event.get("detail"), dict), at,
                "event.detail must be an object")


def _check_campaign(entry: Any, where: str) -> None:
    _expect(isinstance(entry, dict), where,
            "campaign entry must be an object")
    _expect(isinstance(entry.get("suite"), str), where,
            "suite must be a string")
    _expect(entry.get("cache_dir") is None
            or isinstance(entry["cache_dir"], str),
            f"{where}.cache_dir", "must be a string or null")
    _expect(entry.get("shard") is None or isinstance(entry["shard"], dict),
            f"{where}.shard", "must be an object or null")
    for key in ("jobs", "hits", "misses", "deduped", "uncached",
                "corrupt_entries", "stolen_windows", "pool_rebuilds",
                "pool_restarts"):
        _check_number(entry.get(key), f"{where}.{key}")
    for key in ("elapsed_s", "cpu_s", "worker_wall_s"):
        _check_number(entry.get(key), f"{where}.{key}")
    _expect(entry.get("parallel") is None
            or isinstance(entry["parallel"], dict),
            f"{where}.parallel", "must be an object or null")
    _expect(isinstance(entry.get("jobs_detail"), list), where,
            "jobs_detail must be a list")
    for i, job in enumerate(entry["jobs_detail"]):
        at = f"{where}.jobs_detail[{i}]"
        _expect(isinstance(job, dict), at, "job must be an object")
        for key in ("name", "benchmark", "outcome"):
            _expect(isinstance(job.get(key), str), at,
                    f"job.{key} must be a string")
        _expect(job.get("key") is None or isinstance(job["key"], str),
                f"{at}.key", "must be a string or null")
        for key in ("wall_s", "flow_runtime_s", "nodes_before",
                    "nodes_after", "stolen_windows", "pool_restarts",
                    "faults"):
            _check_number(job.get(key), f"{at}.{key}")
        if "stages" in job:          # optional: per-stage history samples
            _expect(isinstance(job["stages"], list), at,
                    "job.stages must be a list")
            for j, stage in enumerate(job["stages"]):
                st = f"{at}.stages[{j}]"
                _expect(isinstance(stage, dict), st,
                        "stage must be an object")
                _expect(isinstance(stage.get("name"), str), st,
                        "stage.name must be a string")
                _check_number(stage.get("size"), f"{st}.size")
                _check_number(stage.get("elapsed_s"), f"{st}.elapsed_s")


def validate_report(report: Any) -> None:
    """Raise :class:`ReportSchemaError` unless *report* matches the schema.

    Accepts every published version up to :data:`SCHEMA_VERSION`; the
    ``guard`` section is required from v2 on, ``campaign`` from v3 on.
    """
    _expect(isinstance(report, dict), "report", "must be an object")
    _expect(report.get("schema") == SCHEMA_NAME, "report.schema",
            f"expected {SCHEMA_NAME!r}, got {report.get('schema')!r}")
    version = report.get("version")
    _expect(isinstance(version, int) and 1 <= version <= SCHEMA_VERSION,
            "report.version",
            f"expected an integer in [1, {SCHEMA_VERSION}], "
            f"got {report.get('version')!r}")
    _expect(report.get("command") is None
            or isinstance(report["command"], str),
            "report.command", "must be a string or null")
    if "code" in report:             # optional: flow code revision
        _expect(report["code"] is None or isinstance(report["code"], str),
                "report.code", "must be a string or null")
    _check_number(report.get("dropped_spans"), "report.dropped_spans")
    _expect(isinstance(report.get("trace"), list), "report.trace",
            "must be a list")
    for i, span in enumerate(report["trace"]):
        _check_span(span, f"report.trace[{i}]")
    _check_metrics(report.get("metrics"), "report.metrics")
    _expect(isinstance(report.get("flows"), list), "report.flows",
            "must be a list")
    for i, flow in enumerate(report["flows"]):
        _check_flow(flow, f"report.flows[{i}]")
    _expect(isinstance(report.get("parallel_passes"), list),
            "report.parallel_passes", "must be a list")
    for i, entry in enumerate(report["parallel_passes"]):
        _check_parallel(entry, f"report.parallel_passes[{i}]")
    if version >= 2:
        _expect(isinstance(report.get("guard"), list), "report.guard",
                "must be a list (schema v2)")
        for i, entry in enumerate(report["guard"]):
            _check_guard(entry, f"report.guard[{i}]")
    if version >= 3:
        _expect(isinstance(report.get("campaign"), list), "report.campaign",
                "must be a list (schema v3)")
        for i, entry in enumerate(report["campaign"]):
            _check_campaign(entry, f"report.campaign[{i}]")


# -- rendering ----------------------------------------------------------------

def _delta(attrs: Dict[str, Any]) -> str:
    before, after = attrs.get("nodes_before"), attrs.get("nodes_after")
    if isinstance(before, (int, float)) and isinstance(after, (int, float)):
        return f"{int(after - before):+d}"
    return ""


def format_trace_table(spans: List[Dict[str, Any]],
                       max_depth: int = 4) -> str:
    """Render the span tree as an indented human table.

    Window/move spans below ``max_depth`` are summarized into a single
    ``(N more spans)`` line per parent to keep the table readable.
    """
    lines = [f"{'span':44s} {'wall_s':>9s} {'cpu_s':>9s} {'Δnodes':>8s}"]

    def visit(span: Dict[str, Any], depth: int) -> None:
        label = ("  " * depth + span["name"])[:44]
        lines.append(f"{label:44s} {span['wall_s']:9.3f} "
                     f"{span['cpu_s']:9.3f} {_delta(span['attrs']):>8s}")
        children = span.get("children", [])
        if depth + 1 >= max_depth and children:
            wall = sum(c.get("wall_s", 0.0) for c in children)
            lines.append(f"{'  ' * (depth + 1)}({len(children)} spans, "
                         f"{wall:.3f}s worker wall)")
            return
        for child in children:
            visit(child, depth + 1)

    for span in spans:
        visit(span, 0)
    return "\n".join(lines)


def format_metrics_table(metrics: Dict[str, Any]) -> str:
    """Render the metrics sections as sorted ``key value`` lines."""
    lines = []
    for key in sorted(metrics.get("counters", {})):
        lines.append(f"counter    {key:48s} {metrics['counters'][key]:g}")
    for key in sorted(metrics.get("gauges", {})):
        lines.append(f"gauge      {key:48s} {metrics['gauges'][key]:g}")
    for key in sorted(metrics.get("histograms", {})):
        hist = metrics["histograms"][key]
        lines.append(f"histogram  {key:48s} count={hist['count']:g} "
                     f"mean={hist['mean']:.3g} min={hist['min']:g} "
                     f"max={hist['max']:g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def main(argv: Optional[List[str]] = None) -> int:
    """Validate a report file (or stdin); print its trace table on success.

    ``python -m repro.obs.report <report.json | ->`` — pass ``-`` to read
    the document from stdin, e.g. piped straight out of a run.  Exit
    codes: ``0`` valid, ``1`` schema violation, ``2`` usage error,
    ``3`` unreadable or undecodable input.
    """
    import sys
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m repro.obs.report <report.json | ->")
        return 2
    try:
        if args[0] == "-":
            report = json.load(sys.stdin)
        else:
            with open(args[0], "r", encoding="utf-8") as handle:
                report = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 3
    try:
        validate_report(report)
    except ReportSchemaError as exc:
        print(f"SCHEMA ERROR: {exc}")
        return 1
    print(f"valid {report['schema']} v{report['version']}  "
          f"(spans={len(report['trace'])} roots, "
          f"flows={len(report['flows'])}, "
          f"parallel_passes={len(report['parallel_passes'])}, "
          f"guard={len(report.get('guard', []))}, "
          f"campaign={len(report.get('campaign', []))})")
    print(format_trace_table(report["trace"]))
    print(format_metrics_table(report["metrics"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
