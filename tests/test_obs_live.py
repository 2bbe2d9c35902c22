"""Tests for the live progress bus (repro.obs.live).

Covers the contracts of the progress view of the span stream:

* the bus as a tracer sink: nothing is traced without a bus or a session,
  and a progress-only run keeps no span tree,
* bounded non-blocking emission with counted drops,
* **payload determinism** — the ``jobs=4`` stream carries bit-identical
  payloads to ``jobs=1`` (only the envelope timing differs),
* the consumers (JSONL sink, TTY renderer, background pump, heartbeats)
  and the ``live_session`` CLI wrapper,
* the truncation-tolerant streaming JSONL reader.
"""

import io
import json
import time
import warnings

import pytest

from tests.conftest import make_random_aig
from repro import obs
from repro.obs.live import (
    BusSink,
    EventBus,
    JsonlEventSink,
    LivePump,
    ProgressEvent,
    TtyProgressSink,
    live_session,
)
from repro.obs.tracer import NULL_TRACER, iter_jsonl
from repro.sbm.config import FlowConfig, OrchestrateConfig
from repro.sbm.flow import sbm_flow


@pytest.fixture(autouse=True)
def _no_leaked_bus():
    yield
    obs.disable_live()


class TestEventBus:
    def test_emit_drain_order_and_envelope(self):
        bus = EventBus()
        bus.emit("a", x=1)
        bus.emit("b", y=2)
        events = bus.drain()
        assert [e.kind for e in events] == ["a", "b"]
        assert [e.seq for e in events] == [0, 1]
        assert events[0].payload == {"x": 1}
        assert events[0].t >= 0.0
        assert bus.drain() == []

    def test_full_queue_drops_and_counts(self):
        bus = EventBus(capacity=3)
        for i in range(10):
            bus.emit("e", i=i)
        assert len(bus) == 3
        assert bus.dropped == 7
        # drains recover capacity
        assert [e.payload["i"] for e in bus.drain()] == [0, 1, 2]
        bus.emit("late", i=99)
        assert bus.drain()[0].payload == {"i": 99}

    def test_to_dict_is_json_line(self):
        event = ProgressEvent(3, 1.25, "stage_end", {"stage": "mspf"})
        line = json.dumps(event.to_dict(), sort_keys=True)
        assert json.loads(line) == {"seq": 3, "t": 1.25, "kind": "stage_end",
                                    "payload": {"stage": "mspf"}}

    def test_no_bus_no_session_traces_nothing(self):
        assert obs.current() is obs.NULL_SCOPE
        assert obs.tracer() is NULL_TRACER

    def test_enable_disable_roundtrip(self):
        bus = obs.enable_live()
        sinks = obs.tracer().sinks
        assert [type(sink) for sink in sinks] == [BusSink]
        assert sinks[0].bus is bus
        assert obs.disable_live() is bus
        assert obs.tracer() is NULL_TRACER

    def test_bus_joins_and_leaves_a_session_tracer(self, tmp_path):
        session = obs.enable(jsonl_path=str(tmp_path / "t.jsonl"))
        try:
            obs.enable_live()
            assert obs.tracer() is session.tracer
            assert [sink.live for sink in session.tracer.sinks] \
                == [False, True]
            obs.disable_live()
            assert [sink.live for sink in session.tracer.sinks] == [False]
            assert obs.disable_live() is None
        finally:
            obs.disable()


def _flow_events(aig, jobs):
    bus = obs.enable_live()
    try:
        sbm_flow(aig, FlowConfig(iterations=1, jobs=jobs))
    finally:
        obs.disable_live()
    return bus.drain()


class TestFlowEmissions:
    def test_flow_emits_bracketed_stage_events(self):
        aig = make_random_aig(8, 300, seed=7)
        events = _flow_events(aig, jobs=1)
        kinds = [e.kind for e in events]
        assert kinds[0] == "flow_start" and kinds[-1] == "flow_end"
        assert kinds.count("stage_start") == kinds.count("stage_end")
        assert kinds.count("stage_start") >= 5
        start = events[0].payload
        assert start["design"] == aig.name
        assert start["stages"] == kinds.count("stage_start")
        # monotone envelope
        assert [e.seq for e in events] == list(range(len(events)))
        for a, b in zip(events, events[1:]):
            assert b.t >= a.t

    def test_payloads_carry_no_timing(self):
        aig = make_random_aig(8, 300, seed=7)
        for event in _flow_events(aig, jobs=1):
            for key in event.payload:
                assert "wall" not in key and "elapsed" not in key \
                    and not key.endswith("_s"), \
                    f"timing leaked into payload: {event.kind}.{key}"

    def test_jobs4_payloads_bit_identical_to_jobs1(self):
        """The determinism contract: only envelope timing may differ."""
        aig = make_random_aig(8, 300, seed=7)
        serial = [(e.kind, e.payload) for e in _flow_events(aig, jobs=1)
                  if e.kind != "heartbeat"]
        parallel = [(e.kind, e.payload) for e in _flow_events(aig, jobs=4)
                    if e.kind != "heartbeat"]
        assert serial == parallel

    def test_disabled_flow_emits_nothing(self):
        aig = make_random_aig(8, 200, seed=3)
        bus = obs.enable_live()
        obs.disable_live()
        sbm_flow(aig, FlowConfig(iterations=1))
        assert bus.drain() == []

    def test_progress_only_keeps_no_span_tree(self):
        aig = make_random_aig(8, 200, seed=3)
        bus = obs.enable_live()
        tracer = obs.tracer()
        try:
            sbm_flow(aig, FlowConfig(iterations=1))
        finally:
            obs.disable_live()
        assert not tracer.retain
        assert tracer.roots == [] and tracer.current() is None
        assert [e.kind for e in bus.drain()][-1] == "flow_end"

    def test_max_spans_never_silences_the_bus(self):
        aig = make_random_aig(8, 200, seed=3)
        session = obs.enable(max_spans=1)
        bus = obs.enable_live()
        try:
            sbm_flow(aig, FlowConfig(iterations=1))
        finally:
            obs.disable_live()
            obs.disable()
        kinds = [e.kind for e in bus.drain()]
        assert kinds[0] == "flow_start" and kinds[-1] == "flow_end"
        assert kinds.count("stage_end") == 9
        assert [s.name for s in session.tracer.roots] == ["flow"]
        assert session.tracer.roots[0].children == []
        assert session.tracer.dropped_spans > 0


class TestSearchEmissions:
    def test_candidates_reach_the_bus_in_order_when_the_round_closes(self):
        aig = make_random_aig(8, 200, seed=3)
        bus = obs.enable_live()
        try:
            sbm_flow(aig, FlowConfig(iterations=1,
                                     orchestrate=OrchestrateConfig(
                                         k=2, rounds=1, threads=2)))
        finally:
            obs.disable_live()
        events = bus.drain()
        kinds = [e.kind for e in events]
        ends = [e.payload for e in events if e.kind == "candidate_end"]
        assert [end["candidate"] for end in ends] == [0, 1]
        assert [end["winner"] for end in ends].count(True) == 1
        assert kinds.index("ordering_start") < kinds.index("candidate_start")
        last_end = max(i for i, kind in enumerate(kinds)
                       if kind == "candidate_end")
        assert last_end < kinds.index("ordering_end")
        assert kinds.count("stage_start") == kinds.count("stage_end") > 0


class TestCampaignEmissions:
    def test_campaign_job_events(self):
        from repro.campaign.runner import CampaignJob, run_campaign
        aig = make_random_aig(8, 200, seed=5)
        bus = obs.enable_live()
        try:
            run_campaign([CampaignJob(name="one", benchmark="adhoc",
                                      network=aig,
                                      config=FlowConfig(iterations=1))])
        finally:
            obs.disable_live()
        events = bus.drain()
        kinds = [e.kind for e in events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        assert "job_start" in kinds and "job_end" in kinds
        job_end = next(e for e in events if e.kind == "job_end")
        assert job_end.payload["name"] == "one"
        assert job_end.payload["outcome"] == "uncached"
        assert job_end.payload["nodes_after"] <= job_end.payload["nodes_before"]
        end = events[-1].payload
        assert end["uncached"] == 1 and end["errors"] == 0


class TestConsumers:
    def _events(self, *kinds, **first_payload):
        out = []
        for i, kind in enumerate(kinds):
            out.append(ProgressEvent(i, 0.1 * i, kind,
                                     first_payload if i == 0 else {}))
        return out

    def test_jsonl_sink_flushes_lines(self):
        stream = io.StringIO()
        sink = JsonlEventSink(stream)
        sink.handle(ProgressEvent(0, 0.5, "flow_start", {"design": "x"}))
        sink.handle(ProgressEvent(1, 0.6, "flow_end", {"design": "x"}))
        sink.close()
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2 and sink.written == 2
        assert json.loads(lines[0])["kind"] == "flow_start"

    def test_tty_sink_overwrites_line(self):
        stream = io.StringIO()
        sink = TtyProgressSink(stream, force_tty=True)
        sink.handle(ProgressEvent(0, 0.0, "flow_start",
                                  {"design": "d", "stages": 9,
                                   "nodes_before": 100}))
        sink.handle(ProgressEvent(1, 0.1, "stage_start",
                                  {"stage": "mspf", "index": 0, "total": 9}))
        sink.close()
        text = stream.getvalue()
        assert "\r\x1b[2K" in text
        assert "stage 1/9 mspf" in text
        assert text.endswith("\n")   # close reopens the prompt

    def test_non_tty_sink_prints_completion_lines(self):
        stream = io.StringIO()
        sink = TtyProgressSink(stream, force_tty=False)
        sink.handle(ProgressEvent(0, 0.0, "stage_start",
                                  {"stage": "mspf", "index": 0, "total": 9}))
        sink.handle(ProgressEvent(1, 0.2, "stage_end",
                                  {"stage": "mspf", "nodes_after": 90,
                                   "level": "full"}))
        sink.handle(ProgressEvent(2, 0.3, "flow_end",
                                  {"design": "d", "nodes_after": 90}))
        sink.close()
        text = stream.getvalue()
        assert "\r" not in text
        assert "stage 1/9 mspf: 90 nodes (full)" in text
        assert "flow d: 90 nodes" in text

    def test_sink_reports_a_span_that_closed_on_an_exception(self):
        stream = io.StringIO()
        sink = TtyProgressSink(stream, force_tty=False)
        sink.handle(ProgressEvent(0, 0.0, "flow_end",
                                  {"design": "d", "error": "ChaosInterrupt"}))
        assert stream.getvalue() == "flow failed: ChaosInterrupt\n"

    def test_pump_delivers_everything_before_stop(self):
        bus = EventBus()
        stream = io.StringIO()
        sink = JsonlEventSink(stream)
        pump = LivePump(bus, [sink], poll_s=0.01).start()
        for i in range(50):
            bus.emit("e", i=i)
        pump.stop()
        lines = stream.getvalue().strip().splitlines()
        assert [json.loads(line)["payload"]["i"] for line in lines] \
            == list(range(50))

    def test_pump_emits_heartbeats_when_quiet(self):
        bus = EventBus()
        stream = io.StringIO()
        sink = JsonlEventSink(stream)
        pump = LivePump(bus, [sink], poll_s=0.01, heartbeat_s=0.05).start()
        deadline = time.time() + 5.0
        while sink.written == 0 and time.time() < deadline:
            time.sleep(0.01)
        pump.stop()
        kinds = [json.loads(line)["kind"]
                 for line in stream.getvalue().strip().splitlines()]
        assert "heartbeat" in kinds

    def test_broken_sink_never_raises(self):
        class Broken:
            def handle(self, event):
                raise OSError("pipe gone")
        bus = EventBus()
        pump = LivePump(bus, [Broken()], poll_s=0.01)
        bus.emit("e")
        pump._dispatch(bus.drain())   # must swallow
        pump.stop()


class TestLiveSession:
    def test_noop_without_consumers(self):
        with live_session() as bus:
            assert bus is None
            assert obs.tracer() is NULL_TRACER

    def test_jsonl_session_streams_flow(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        aig = make_random_aig(8, 200, seed=11)
        with live_session(jsonl_path=path) as bus:
            assert obs.tracer().sinks[0].bus is bus
            sbm_flow(aig, FlowConfig(iterations=1))
        assert obs.tracer() is NULL_TRACER
        kinds = [record["kind"] for record in iter_jsonl(path)]
        assert kinds[0] == "flow_start" and "flow_end" in kinds

    def test_progress_session_renders(self, tmp_path):
        stream = io.StringIO()
        aig = make_random_aig(8, 200, seed=11)
        with live_session(progress=True, stream=stream):
            sbm_flow(aig, FlowConfig(iterations=1))
        assert "nodes" in stream.getvalue()


class TestIterJsonl:
    def test_truncated_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"ev": "start", "id": 0}) + "\n")
            handle.write(json.dumps({"ev": "end", "id": 0}) + "\n")
            handle.write('{"ev": "start", "id": 1, "na')   # torn write
        reader = iter_jsonl(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = list(reader)
        assert len(records) == 2
        assert reader.skipped == 1
        assert any("undecodable" in str(w.message) for w in caught)

    def test_clean_file_no_warning(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"a": 1}) + "\n\n")   # blank line ok
        reader = iter_jsonl(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert list(reader) == [{"a": 1}]
        assert reader.skipped == 0
        assert not caught

    def test_reader_is_reiterable(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"a": 1}) + "\nnot json\n")
        reader = iter_jsonl(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert list(reader) == [{"a": 1}]
            assert list(reader) == [{"a": 1}]
        assert reader.skipped == 2   # counters accumulate


class TestCliFlags:
    def test_progress_jsonl_flag(self, tmp_path):
        from repro.__main__ import main as cli_main
        from repro.aig.io_aiger import write_aag
        aig = make_random_aig(8, 150, seed=9)
        src = str(tmp_path / "in.aag")
        write_aag(aig, src)
        out = str(tmp_path / "progress.jsonl")
        assert cli_main(["optimize", src, "--progress-jsonl", out]) == 0
        assert obs.tracer() is NULL_TRACER   # torn down on exit
        kinds = [r["kind"] for r in iter_jsonl(out)]
        assert "flow_start" in kinds and "flow_end" in kinds
