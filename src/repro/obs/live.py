"""Live telemetry streaming: the progress bus, a sink of the span tracer.

:mod:`repro.obs.tracer` spans are the only producer of telemetry.  This
module is the view a human (or the future synthesis-as-a-service daemon)
watches *while* the flow runs: :class:`BusSink` sits beside the JSONL
sink and the in-memory tree on the active tracer and turns the starts and
ends of the progress spans into small **progress events** on a bounded
:class:`EventBus`; consumers (a TTY renderer, a JSONL stream, a test)
drain them asynchronously through a :class:`LivePump`.

Design constraints, in order:

* **Zero cost when disabled.**  With no bus and no session every scope's
  tracer is the null tracer, so no span exists and nothing is published —
  instrumented code never branches on the bus (see
  ``benchmarks/bench_obs.py``).  A bus-only run (``--progress``) streams
  spans through a tracer that keeps no tree.
* **Non-blocking.**  :meth:`EventBus.emit` never waits on a consumer: the
  queue is bounded and an emit against a full queue increments
  :attr:`EventBus.dropped` and returns.  A slow terminal can therefore
  never stall the flow.
* **Deterministic payloads.**  A payload is the span's attributes, and
  span attributes carry only values that are bit-identical for every
  ``jobs`` count — node counts, stage names, partition-ordered window
  outcomes — never wall times, worker ids or the worker count.  Timing
  lives exclusively in the envelope (:attr:`ProgressEvent.t`,
  :attr:`ProgressEvent.seq`), so ``jobs=4`` and ``jobs=1`` streams differ
  only in timestamps.  Worker processes never publish: the partition
  scheduler records its window spans in the parent while merging worker
  results **in partition order**.  A campaign job's scope streams to the
  bus as the job runs; a search candidate's scope reaches it when its
  round closes, in candidate order.  (``heartbeat`` events are the one
  wall-clock-driven kind; consumers comparing streams must filter them.)

Event kinds
-----------
:data:`PROGRESS_EVENTS` maps the published span kinds to their events;
every other span kind stays off the bus.  ``heartbeat`` is emitted by
the :class:`LivePump` when the bus has been quiet for a while, so stream
consumers can distinguish "working on a huge window" from "dead".

The CLI surfaces all of this as ``--progress`` (a TTY-aware status line on
stderr) and ``--progress-jsonl PATH`` (one JSON object per event, flushed
per line — tail-able, and the machine-readable channel a daemon client
would subscribe to).
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple


class ProgressEvent:
    """One bus event: a deterministic payload in a timing envelope."""

    __slots__ = ("seq", "t", "kind", "payload")

    def __init__(self, seq: int, t: float, kind: str,
                 payload: Dict[str, Any]) -> None:
        self.seq = seq          #: emission index on this bus (envelope)
        self.t = t              #: seconds since the bus epoch (envelope)
        self.kind = kind
        self.payload = payload  #: deterministic content — no timing inside

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (the ``--progress-jsonl`` line)."""
        return {"seq": self.seq, "t": round(self.t, 6), "kind": self.kind,
                "payload": self.payload}

    def __repr__(self) -> str:  # debugging aid only
        return f"ProgressEvent({self.seq}, {self.kind}, {self.payload!r})"


class EventBus:
    """Bounded, thread-safe, non-blocking progress event queue.

    Emitters (the :class:`BusSink` of every tracer that streams to it, on
    any thread, and the pump's heartbeat) append; one consumer drains.  A
    full queue drops the new event and counts it — emitters never block,
    and the drop counter makes the loss visible instead of silent.
    """

    def __init__(self, capacity: int = 8192) -> None:
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque()
        self._lock = threading.Lock()
        self._seq = 0
        self._epoch = time.perf_counter()

    def emit(self, kind: str, /, **payload: Any) -> None:
        """Publish one event; drops (counted) when the queue is full."""
        with self._lock:
            if len(self._events) >= self.capacity:
                self.dropped += 1
                return
            self._events.append(ProgressEvent(
                self._seq, time.perf_counter() - self._epoch, kind, payload))
            self._seq += 1

    def drain(self) -> List[ProgressEvent]:
        """Remove and return every queued event (oldest first)."""
        with self._lock:
            if not self._events:
                return []
            out = list(self._events)
            self._events.clear()
        return out

    def __len__(self) -> int:
        return len(self._events)


#: Span kinds the bus publishes: kind -> (event at open, event at close).
#: The scheduler's partition windows are recorded closed, so they publish
#: once; the gradient engine's own windows are a different kind and stay
#: off the bus, which they would flood.
PROGRESS_EVENTS: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    "flow": ("flow_start", "flow_end"),
    "stage": ("stage_start", "stage_end"),
    "pass": ("pass_start", "pass_end"),
    "window": (None, "window"),
    "ordering": ("ordering_start", "ordering_end"),
    "candidate": ("candidate_start", "candidate_end"),
    "campaign": ("campaign_start", "campaign_end"),
    "job": ("job_start", "job_end"),
    "fuzz_case": ("fuzz_case_start", "fuzz_case_end"),
}


class BusSink:
    """Tracer sink: publishes the progress spans' attributes on a bus.

    A live sink — child scopes on other threads feed it directly, so a
    campaign job's events stream while the job runs.
    """

    live = True

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus

    def start(self, span: Any) -> None:
        self._publish(span, 0)

    def end(self, span: Any) -> None:
        self._publish(span, 1)

    def _publish(self, span: Any, edge: int) -> None:
        event = PROGRESS_EVENTS.get(span.kind, (None, None))[edge]
        if event is not None:
            self.bus.emit(event, **span.attrs)


# -- consumers -----------------------------------------------------------------

class JsonlEventSink:
    """Writes every event as one JSON line, flushed immediately.

    The stream stays tail-able during a run and is the machine-readable
    progress channel future daemon clients consume.
    """

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream
        self.written = 0

    def handle(self, event: ProgressEvent) -> None:
        self.stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.stream.flush()
        self.written += 1

    def close(self) -> None:
        self.stream.flush()


class TtyProgressSink:
    """Human progress renderer: a live status line on a TTY, plain lines
    otherwise.

    Keeps a tiny state machine over the event stream (current campaign /
    flow / stage / window counts) and renders it as one overwritten line
    when the stream is a terminal, or as one line per stage/job/flow
    completion when it is not (CI logs).
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 force_tty: Optional[bool] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if force_tty is None:
            force_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.tty = force_tty
        self._t0 = time.perf_counter()
        self._line_open = False
        # state machine
        self.design = ""
        self.stage = ""
        self.stage_index = 0
        self.stage_total = 0
        self.nodes: Optional[int] = None
        self.windows_done = 0
        self.windows_total = 0
        self.suite = ""
        self.jobs_total = 0
        self.jobs_done = 0
        self.outcomes: Dict[str, int] = {}

    # -- event dispatch ------------------------------------------------------

    def handle(self, event: ProgressEvent) -> None:
        payload = event.payload
        kind = event.kind
        if kind.endswith("_end") and "error" in payload:
            # The span closed on an exception: it has no outcome to show.
            self._println(f"{kind[:-4]} failed: {payload['error']}")
        elif kind == "flow_start":
            self.design = str(payload.get("design") or "flow")
            self.stage_total = int(payload.get("stages", 0))
            self.stage_index = 0
            self.nodes = payload.get("nodes_before")
            self.windows_done = self.windows_total = 0
        elif kind == "stage_start":
            self.stage = str(payload.get("stage", ""))
            self.stage_index = int(payload.get("index", 0)) + 1
            self.stage_total = int(payload.get("total", self.stage_total))
            self.windows_done = self.windows_total = 0
        elif kind == "stage_end":
            self.nodes = payload.get("nodes_after")
            if not self.tty:
                self._println(
                    f"stage {self.stage_index}/{self.stage_total} "
                    f"{payload.get('stage')}: {self.nodes} nodes "
                    f"({payload.get('level')})")
        elif kind == "pass_start":
            self.windows_done = 0
            self.windows_total = int(payload.get("windows", 0))
        elif kind == "window":
            self.windows_done = int(payload.get("done", self.windows_done))
            self.windows_total = int(payload.get("total", self.windows_total))
        elif kind == "flow_end":
            self.nodes = payload.get("nodes_after")
            self._println(f"flow {payload.get('design') or self.design}: "
                          f"{self.nodes} nodes")
        elif kind == "campaign_start":
            self.suite = str(payload.get("suite", ""))
            self.jobs_total = int(payload.get("jobs", 0))
            self.jobs_done = 0
            self.outcomes = {}
        elif kind == "job_end":
            self.jobs_done += 1
            outcome = str(payload.get("outcome", "?"))
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            if not self.tty:
                self._println(
                    f"job {self.jobs_done}/{self.jobs_total} "
                    f"{payload.get('name')}: {outcome} "
                    f"-> {payload.get('nodes_after')} nodes")
        elif kind == "campaign_end":
            pretty = " ".join(f"{k}={v}"
                              for k, v in sorted(self.outcomes.items()))
            self._println(f"campaign {self.suite or payload.get('suite')}: "
                          f"{self.jobs_done}/{self.jobs_total} jobs  {pretty}")
        elif kind == "heartbeat" and not self.tty:
            self._println(f"... still running ({self._elapsed():.0f}s)")
        if self.tty:
            self._render_line()

    # -- rendering -----------------------------------------------------------

    def _elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def _status_line(self) -> str:
        parts = [f"{self._elapsed():6.1f}s"]
        if self.jobs_total:
            parts.append(f"jobs {self.jobs_done}/{self.jobs_total}")
        if self.design:
            parts.append(self.design)
        if self.stage:
            parts.append(f"stage {self.stage_index}/{self.stage_total} "
                         f"{self.stage}")
        if self.windows_total:
            parts.append(f"win {self.windows_done}/{self.windows_total}")
        if self.nodes is not None:
            parts.append(f"{self.nodes} nodes")
        return "  ".join(parts)

    def _render_line(self) -> None:
        self.stream.write("\r\x1b[2K" + self._status_line())
        self.stream.flush()
        self._line_open = True

    def _println(self, text: str) -> None:
        if self.tty and self._line_open:
            self.stream.write("\r\x1b[2K")
            self._line_open = False
        self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        if self.tty and self._line_open:
            self.stream.write("\n")
            self._line_open = False
        self.stream.flush()


class LivePump:
    """Background drainer: moves bus events into the attached sinks.

    One daemon thread polls :meth:`EventBus.drain` and fans each event out
    to every sink, strictly in bus order.  When the bus has been quiet for
    ``heartbeat_s`` the pump emits a ``heartbeat`` event (through the bus,
    so JSONL consumers see it too).  :meth:`stop` performs a final drain,
    so no event published before the stop call is ever lost.
    """

    def __init__(self, bus: EventBus, sinks: List[Any],
                 poll_s: float = 0.1,
                 heartbeat_s: Optional[float] = None) -> None:
        self.bus = bus
        self.sinks = list(sinks)
        self.poll_s = poll_s
        self.heartbeat_s = heartbeat_s
        self._beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LivePump":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-obs-live-pump")
        self._thread.start()
        return self

    def _dispatch(self, events: List[ProgressEvent]) -> None:
        for event in events:
            for sink in self.sinks:
                try:
                    sink.handle(event)
                except Exception:
                    # A broken consumer (closed pipe, ...) must never take
                    # the flow down; the bus keeps the producer side safe.
                    pass

    def _run(self) -> None:
        quiet_since = time.perf_counter()
        while not self._stop.is_set():
            events = self.bus.drain()
            if events:
                self._dispatch(events)
                quiet_since = time.perf_counter()
            elif (self.heartbeat_s is not None
                  and time.perf_counter() - quiet_since >= self.heartbeat_s):
                self._beats += 1
                self.bus.emit("heartbeat", beats=self._beats)
                quiet_since = time.perf_counter()
            self._stop.wait(self.poll_s)

    def stop(self) -> None:
        """Stop the thread, perform the final drain, close every sink."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._dispatch(self.bus.drain())
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass


@contextlib.contextmanager
def live_session(progress: bool = False,
                 jsonl_path: Optional[str] = None,
                 stream: Optional[TextIO] = None,
                 heartbeat_s: Optional[float] = 15.0,
                 capacity: int = 8192) -> Iterator[Optional[EventBus]]:
    """Install the live bus + consumers for the duration of a CLI command.

    The bus joins the active tracer as a :class:`BusSink`
    (:func:`repro.obs.enable_live`).  With neither *progress* nor
    *jsonl_path* the context is a no-op
    yielding ``None`` — callers can wrap a command unconditionally.  On
    exit the pump performs its final drain, the JSONL file is closed, and
    any dropped-event count is reported on stderr.
    """
    if not progress and jsonl_path is None:
        yield None
        return
    from repro import obs
    sinks: List[Any] = []
    jsonl_file = None
    if progress:
        sinks.append(TtyProgressSink(stream))
    if jsonl_path is not None:
        jsonl_file = open(jsonl_path, "w", encoding="utf-8")
        sinks.append(JsonlEventSink(jsonl_file))
    bus = obs.enable_live(EventBus(capacity=capacity))
    pump = LivePump(bus, sinks, heartbeat_s=heartbeat_s).start()
    try:
        yield bus
    finally:
        obs.disable_live()
        pump.stop()
        if jsonl_file is not None:
            jsonl_file.close()
        if bus.dropped:
            print(f"[obs.live] {bus.dropped} progress event(s) dropped "
                  f"(bus capacity {bus.capacity})", file=sys.stderr)
