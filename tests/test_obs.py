"""Tests for the observability package (``repro.obs``).

Covers the four guarantees the package makes:

* **Tree correctness** — nested spans build the right parent/child tree,
  with attributes, bounded events, and wall/CPU times.
* **JSONL round-trip** — the event sink replays into the same tree that
  the tracer kept in memory.
* **Determinism** — the metrics merged back from ``jobs=4`` workers are
  identical to the ``jobs=1`` run (counts only, partition-order merge).
* **Zero cost when off** — the disabled singletons add no measurable
  overhead at instrumented call sites.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, metric_key
from repro.obs.report import (
    ReportSchemaError,
    build_report,
    format_metrics_table,
    format_trace_table,
    validate_report,
    write_report,
)
from repro.obs.report import main as report_main
from repro.obs.tracer import (
    MAX_EVENTS_PER_SPAN,
    NULL_SPAN,
    NULL_TRACER,
    JsonlSink,
    Tracer,
    load_jsonl,
)
from repro.parallel.stats import ParallelReport, WindowRecord
from repro.partition.partitioner import PartitionConfig
from repro.sbm.config import FlowConfig, MspfConfig, OrchestrateConfig
from repro.sbm.flow import FlowStats, sbm_flow
from repro.sbm.mspf import mspf_pass

from tests.conftest import make_random_aig

SMALL_PARTS = PartitionConfig(max_levels=4, max_size=40, max_leaves=16)


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with observability off."""
    obs.disable()
    yield
    obs.disable()


# -- tracer -------------------------------------------------------------------

class _EndNames:
    """A test sink that lists the names of the spans it saw close."""

    def __init__(self, live: bool = False) -> None:
        self.live = live
        self.names = []

    def start(self, span) -> None:
        pass

    def end(self, span) -> None:
        self.names.append(span.name)


class TestTracer:
    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with tracer.span("flow", kind="flow") as flow:
            assert tracer.current() is flow
            with tracer.span("stage_a", kind="stage") as a:
                a.set("nodes_before", 10)
                with tracer.span("window", kind="window"):
                    pass
            with tracer.span("stage_b", kind="stage"):
                pass
        assert tracer.current() is None
        assert [s.name for s in tracer.roots] == ["flow"]
        flow = tracer.roots[0]
        assert [c.name for c in flow.children] == ["stage_a", "stage_b"]
        assert flow.children[0].attrs["nodes_before"] == 10
        assert [c.name for c in flow.children[0].children] == ["window"]
        assert flow.children[0].parent_id == flow.span_id
        assert flow.wall_s >= flow.children[0].wall_s >= 0.0

    def test_record_attaches_closed_child(self):
        tracer = Tracer()
        with tracer.span("pass"):
            tracer.record("window[0]", kind="window", wall_s=1.25, gain=3)
        window = tracer.roots[0].children[0]
        assert window.wall_s == 1.25
        assert window.cpu_s == 0.0
        assert window.attrs == {"gain": 3}

    def test_events_are_bounded(self):
        tracer = Tracer()
        with tracer.span("stage") as sp:
            for i in range(MAX_EVENTS_PER_SPAN + 10):
                sp.event("move", index=i)
        span = tracer.roots[0]
        assert len(span.events) == MAX_EVENTS_PER_SPAN
        assert span.dropped_events == 10
        assert span.to_dict()["dropped_events"] == 10

    def test_max_spans_drops_beyond_cap(self):
        sink = _EndNames()
        tracer = Tracer(sinks=[sink], max_spans=2)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        assert tracer.dropped_spans == 1
        assert [s.name for s in tracer.roots] == ["a", "b"]
        assert tracer.roots[1].children == []
        assert sink.names == ["a", "c", "b"]   # the sinks still see "c"

    def test_graft_renumbers_tags_and_replays_in_tree_order(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as stream:
            live = _EndNames(live=True)
            parent = Tracer(sinks=[JsonlSink(stream), live])
            waiting, streaming = parent.child(False), parent.child(True)
            assert waiting.sinks == [] and streaming.sinks == [live]
            for child in (waiting, streaming):
                with child.span("candidate", kind="candidate"):
                    with child.span("mspf", kind="stage"):
                        pass
            assert live.names == ["mspf", "candidate"]   # streamed as run
            with parent.span("ordering", kind="ordering") as ordering:
                parent.graft(waiting, winner=True)
                parent.graft(streaming, winner=False)
        assert live.names == ["mspf", "candidate", "mspf", "candidate",
                              "ordering"]
        first, second = ordering.children
        assert (first.attrs, second.attrs) == ({"winner": True},
                                               {"winner": False})
        assert first.parent_id == ordering.span_id
        assert first.children[0].parent_id == first.span_id
        ids = [ordering.span_id, first.span_id, first.children[0].span_id,
               second.span_id, second.children[0].span_id]
        assert len(set(ids)) == 5
        assert load_jsonl(path) == [s.to_dict() for s in parent.roots]

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("stage"):
                raise ValueError("boom")
        assert tracer.roots[0].attrs["error"] == "ValueError"
        assert tracer.current() is None

    def test_null_tracer_is_free_of_state(self):
        span = NULL_TRACER.span("anything", kind="flow", attr=1)
        assert span is NULL_SPAN
        with span as inner:
            inner.set("key", "value")
            inner.event("event")
        NULL_TRACER.record("window", wall_s=1.0)
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.current() is None


class TestJsonlRoundTrip:
    def test_sink_replays_to_identical_tree(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        session = obs.enable(jsonl_path=path)
        with obs.span("flow", kind="flow", design="t") as flow:
            with obs.span("stage", kind="stage", nodes_before=7) as sp:
                sp.set("nodes_after", 5)
                sp.event("merge", cls=3)
            obs.tracer().record("window[1]", kind="window", wall_s=0.5,
                                applied=True)
            flow.set("nodes_after", 5)
        in_memory = [s.to_dict() for s in session.tracer.roots]
        obs.disable()
        assert load_jsonl(path) == in_memory

    def test_missing_end_event_keeps_partial_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"ev": "start", "id": 0, "parent": None,
                        "name": "flow", "kind": "flow", "t": 0.0}) + "\n")
        roots = load_jsonl(str(path))
        assert roots[0]["name"] == "flow"
        assert roots[0]["wall_s"] == 0.0


# -- metrics ------------------------------------------------------------------

class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {}) == "m"
        assert (metric_key("m", {"b": 2, "a": 1})
                == metric_key("m", {"a": 1, "b": 2})
                == "m{a=1,b=2}")

    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("moves", move="resub")
        reg.inc("moves", 2, move="resub")
        reg.set_gauge("budget", 10.0)
        reg.set_gauge("budget", 4.0)
        for v in (1.0, 3.0, 2.0):
            reg.observe("window_size", v)
        assert reg.counter("moves", move="resub") == 3
        assert reg.counters_with_prefix("moves") == {"moves{move=resub}": 3}
        assert reg.gauges["budget"] == 4.0
        hist = reg.histograms["window_size"]
        assert (hist["count"], hist["min"], hist["max"]) == (3, 1.0, 3.0)
        assert hist["mean"] == pytest.approx(2.0)

    def test_merge_is_order_independent(self):
        def snap(seed):
            reg = MetricsRegistry()
            reg.inc("rewrites", seed)
            reg.observe("gain", float(seed))
            return reg.snapshot()

        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(snap(1)), ab.merge(snap(5))
        ba.merge(snap(5)), ba.merge(snap(1))
        assert ab.to_dict() == ba.to_dict()
        assert ab.counter("rewrites") == 6

    def test_null_registry_records_nothing(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.set_gauge("y", 1.0)
        NULL_METRICS.observe("z", 1.0)
        assert NULL_METRICS.is_empty()
        assert NULL_METRICS.snapshot() == {}


# -- worker-metric determinism ------------------------------------------------

class TestWorkerMetricsDeterminism:
    def _run_with_jobs(self, jobs: int):
        aig = make_random_aig(12, 500, seed=42)
        session = obs.enable()
        try:
            mspf_pass(aig, MspfConfig(partition=SMALL_PARTS), jobs=jobs)
            return session.metrics.snapshot()
        finally:
            obs.disable()

    def test_jobs4_metrics_equal_jobs1(self):
        serial = self._run_with_jobs(1)
        parallel = self._run_with_jobs(4)
        assert parallel == serial
        assert serial["counters"]["parallel.windows{engine=mspf}"] > 0
        assert "mspf.bdd_bailouts" in serial["counters"]


# -- zero cost when disabled --------------------------------------------------

class TestDisabledOverhead:
    def test_disabled_accessors_return_singletons(self):
        assert obs.tracer() is NULL_TRACER
        assert obs.metrics() is NULL_METRICS
        assert obs.span("anything") is NULL_SPAN
        assert not obs.enabled()

    def test_disabled_call_site_is_cheap(self):
        # The instrumented pattern, hammered: must stay in the
        # microseconds-per-call regime (generous absolute bound so slow
        # CI machines do not flake — a regression to real spans is ~100x).
        n = 50_000
        t0 = time.perf_counter()
        for i in range(n):
            with obs.span("stage", kind="stage", effort=1) as sp:
                sp.set("nodes_after", i)
            obs.metrics().inc("moves", move="resub")
        per_call_us = (time.perf_counter() - t0) / n * 1e6
        assert per_call_us < 50.0

    def test_enable_disable_swaps_cleanly(self):
        session = obs.enable()
        assert obs.enabled() and obs.session() is session
        with obs.span("s"):
            pass
        obs.disable()
        assert not obs.enabled() and obs.session() is None
        assert len(session.tracer.roots) == 1  # stays readable after disable

    def test_scope_restores_the_outer_scope(self):
        local = MetricsRegistry()
        with obs.Scope(metrics=local) as scope:
            assert obs.current() is scope and obs.tracer() is NULL_TRACER
            obs.metrics().inc("worker_side")
        assert local.counter("worker_side") == 1
        assert obs.current() is obs.NULL_SCOPE
        assert obs.metrics() is NULL_METRICS

    def test_null_scope_keeps_no_reports(self):
        obs.record_flow_stats(FlowStats())
        assert obs.NULL_SCOPE.flow_stats == []


# -- scopes -------------------------------------------------------------------

class TestScopes:
    def test_children_are_adopted_in_order_and_stream_as_run(self):
        session = obs.enable()
        bus = obs.enable_live()
        try:
            root = obs.current()
            children = [root.child(), root.child()]
            for index in (1, 0):                  # run out of order
                with children[index], obs.span(f"job:{index}", kind="job",
                                               name=str(index)):
                    obs.metrics().inc("work")
                    obs.record_flow_stats(index)
            assert root.flow_stats == [] and root.metrics.is_empty()
            with obs.span("campaign", kind="campaign"):
                for child in children:
                    root.adopt(child)
        finally:
            obs.disable_live()
            obs.disable()
        campaign = session.tracer.roots[0]
        assert [c.name for c in campaign.children] == ["job:0", "job:1"]
        assert session.flow_stats == [0, 1]
        assert session.metrics.counter("work") == 2
        assert [e.payload["name"] for e in bus.drain()
                if e.kind == "job_end"] == ["1", "0"]

    def test_concurrent_children_keep_their_own_trees(self):
        # More threads than cores and a tiny switch interval: each child's
        # spans must stay in its own tree, every event must reach the
        # shared bus once, and adoption must restore child order.
        import sys
        import threading
        session = obs.enable()
        bus = obs.enable_live(obs.EventBus(capacity=100_000))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            root = obs.current()
            children = [root.child() for _ in range(8)]

            def work(index):
                with children[index]:
                    for step in range(100):
                        with obs.span("job", kind="job", name=index):
                            with obs.span("flow", kind="flow", step=step):
                                obs.metrics().inc("steps")

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for child in children:
                root.adopt(child)
        finally:
            sys.setswitchinterval(interval)
            obs.disable_live()
            obs.disable()
        roots = session.tracer.roots
        assert [span.attrs["name"] for span in roots] \
            == [i for i in range(8) for _ in range(100)]
        assert all([c.attrs["step"] for c in span.children] == [step]
                   for span, step in zip(roots, list(range(100)) * 8))
        assert session.metrics.counter("steps") == 800
        events = bus.drain()
        assert len(events) == 8 * 100 * 4
        assert [event.seq for event in events] == list(range(3200))

    def test_children_of_the_null_scope_only_keep_reports(self):
        child = obs.current().child()
        assert child.tracer is NULL_TRACER and child.metrics is NULL_METRICS
        with child:
            obs.record_parallel_report("pass")
        assert child.parallel_reports == ["pass"]
        obs.current().adopt(child)
        assert obs.NULL_SCOPE.parallel_reports == []


# -- FlowStats / ParallelReport satellites ------------------------------------

class TestFlowStats:
    @pytest.mark.parametrize("orchestrate", [None, OrchestrateConfig(k=1)])
    def test_runtime_survives_a_wall_clock_step_back(self, monkeypatch,
                                                     orchestrate):
        # Stepping the wall clock back an hour mid-flow must not turn the
        # flow's runtime negative: it is a duration, not two timestamps.
        wall = time.time
        calls = []

        def stepped_back() -> float:
            calls.append(None)
            return wall() - (3600.0 if len(calls) > 1 else 0.0)

        monkeypatch.setattr(time, "time", stepped_back)
        _, stats = sbm_flow(make_random_aig(6, 60, seed=3),
                            FlowConfig(iterations=1, orchestrate=orchestrate))
        assert stats.runtime_s >= 0.0

    def test_record_keeps_elapsed(self):
        stats = FlowStats()
        stats.record("initial", 100)
        stats.record("mspf[1]", 90, elapsed_s=0.5)
        assert stats.records[1].elapsed_s == 0.5
        assert stats.to_dict()["stages"][1] == {
            "name": "mspf[1]", "size": 90, "elapsed_s": 0.5}


class TestParallelReportSpeedup:
    def _report(self):
        report = ParallelReport(engine="mspf", jobs=4, elapsed_s=2.0,
                                pool_restarts=1)
        report.records = [
            WindowRecord(0, "mspf", 40, 10, wall_s=3.0, applied=True, gain=5),
            WindowRecord(1, "mspf", 40, 10, wall_s=1.0),
            WindowRecord(2, "mspf", 40, 10, wall_s=6.0, fallback="timeout"),
        ]
        return report

    def test_speedup_excludes_fallback_windows(self):
        report = self._report()
        assert report.worker_wall_s == pytest.approx(10.0)
        assert report.useful_worker_wall_s == pytest.approx(4.0)
        assert report.speedup == pytest.approx(2.0)

    def test_format_report_surfaces_pool_restarts(self):
        text = self._report().format_report()
        assert "pool_restarts=1" in text
        assert "useful 4.00s" in text


# -- run report ---------------------------------------------------------------

def _sample_session():
    session = obs.enable()
    with obs.span("flow", kind="flow", design="t", nodes_before=9) as flow:
        with obs.span("mspf", kind="stage") as sp:
            sp.set("nodes_after", 7)
        flow.set("nodes_after", 7)
    obs.metrics().inc("mspf.bdd_bailouts", 0)
    obs.metrics().inc("gradient.moves_tried", 3, move="resub")
    obs.metrics().observe("window.size", 40.0)
    stats = FlowStats(runtime_s=1.0)
    stats.record("initial", 9)
    stats.record("final", 7, elapsed_s=0.9)
    obs.record_flow_stats(stats)
    report = ParallelReport(engine="mspf", jobs=1, elapsed_s=0.2)
    report.records = [WindowRecord(0, "mspf", 9, 4, wall_s=0.1, applied=True,
                                   gain=2)]
    obs.record_parallel_report(report)
    obs.disable()
    return session


class TestRunReport:
    def test_build_and_validate(self):
        report = build_report(_sample_session(), command="optimize t")
        validate_report(report)
        assert report["metrics"]["counters"]["mspf.bdd_bailouts"] == 0
        assert report["flows"][0]["stages"][1]["elapsed_s"] == 0.9
        assert report["parallel_passes"][0]["speedup"] == pytest.approx(0.5)
        # The report must be pure JSON (round-trips losslessly).
        assert json.loads(json.dumps(report)) == report

    @pytest.mark.parametrize("corrupt", [
        lambda r: r.update(version=99),
        lambda r: r.update(schema="other/schema"),
        lambda r: r.pop("metrics"),
        lambda r: r["trace"][0].pop("children"),
        lambda r: r["trace"][0].update(wall_s="fast"),
        lambda r: r["flows"][0]["stages"][0].pop("elapsed_s"),
        lambda r: r["parallel_passes"][0].pop("useful_worker_wall_s"),
    ])
    def test_validator_rejects_drift(self, corrupt):
        report = build_report(_sample_session())
        corrupt(report)
        with pytest.raises(ReportSchemaError):
            validate_report(report)

    def test_v1_reports_still_validate(self):
        # Schema v2 added the "guard" section; pre-existing v1 reports
        # (no guard key) must keep validating.
        report = build_report(_sample_session())
        report["version"] = 1
        del report["guard"]
        validate_report(report)

    def test_v2_requires_guard_section(self):
        report = build_report(_sample_session())
        del report["guard"]
        with pytest.raises(ReportSchemaError):
            validate_report(report)
        report["guard"] = [{"rollbacks": 0}]  # missing required counters
        with pytest.raises(ReportSchemaError):
            validate_report(report)

    def test_cli_validator(self, tmp_path, capsys):
        path = str(tmp_path / "report.json")
        report = build_report(_sample_session(), command="optimize t")
        write_report(path, report)
        assert report_main([path]) == 0
        assert "valid repro.obs/run-report v3" in capsys.readouterr().out

        report["version"] = 99
        write_report(path, report)
        assert report_main([path]) == 1
        assert "SCHEMA ERROR" in capsys.readouterr().out
        assert report_main([]) == 2

    def test_tables_render(self):
        report = build_report(_sample_session())
        trace = format_trace_table(report["trace"])
        assert "flow" in trace and "mspf" in trace
        metrics = format_metrics_table(report["metrics"])
        assert "gradient.moves_tried{move=resub}" in metrics
        assert "histogram" in metrics


# -- CLI flags ----------------------------------------------------------------

class TestCliFlags:
    def test_extract_obs_strips_flags(self):
        from repro.__main__ import _extract_obs
        args, trace, jsonl, report = _extract_obs(
            ["optimize", "router", "--trace", "--trace-jsonl", "t.jsonl",
             "--report-json=out.json"])
        assert args == ["optimize", "router"]
        assert trace and jsonl == "t.jsonl" and report == "out.json"

    def test_extract_obs_defaults(self):
        from repro.__main__ import _extract_obs
        args, trace, jsonl, report = _extract_obs(["fig1"])
        assert args == ["fig1"]
        assert not trace and jsonl is None and report is None

    def test_value_flag_requires_value(self):
        from repro.__main__ import _extract_obs
        with pytest.raises(SystemExit):
            _extract_obs(["optimize", "--report-json"])

    def test_optimize_end_to_end_writes_valid_report(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        from repro.aig.io_aiger import write_aag
        aig = make_random_aig(10, 120, seed=7)
        src = str(tmp_path / "in.aag")
        write_aag(aig, src)
        out = str(tmp_path / "report.json")
        jsonl = str(tmp_path / "trace.jsonl")
        status = cli_main(["optimize", src, "--trace",
                           "--trace-jsonl", jsonl, "--report-json", out])
        assert status == 0
        assert not obs.enabled()  # CLI tears the session down
        with open(out) as handle:
            report = json.load(handle)
        validate_report(report)
        names = [s["name"] for s in report["trace"][0]["children"][0]
                 ["children"]]
        assert "mspf" in names and "gradient" in names
        counters = report["metrics"]["counters"]
        assert "mspf.bdd_bailouts" in counters
        assert any(k.startswith("gradient.moves_tried") for k in counters)
        assert load_jsonl(jsonl)[0]["name"] == "flow"
        captured = capsys.readouterr().out
        assert "flow" in captured and f"run report written to {out}" in captured
