"""Hierarchical span tracer for the SBM flow.

A *span* is one timed region of the flow — ``flow → iteration → stage →
partition-window → move`` — with wall/CPU time, free-form attributes
(node counts before/after, fallback reasons, ...), bounded point events,
and child spans.  Spans are created through a nestable context-manager
API:

    with tracer.span("mspf", kind="stage") as sp:
        sp.set("nodes_before", aig.num_ands)
        ...
        sp.set("nodes_after", aig.num_ands)

A tracer streams every span start/end to its **sinks** — the
:class:`JsonlSink` file, which :func:`load_jsonl` turns back into the same
tree, and the live progress bus (:class:`repro.obs.live.BusSink`) — and,
when it *retains*, keeps the finished spans as an in-memory tree
(``roots``).  Attributes are deterministic values (node counts, names,
window outcomes); times live only in ``wall_s``/``cpu_s``.

Work on another thread records into a :meth:`Tracer.child`, whose tree
the owner grafts under its innermost live span when the work is done
(:meth:`Tracer.graft`).  Work executed in worker processes cannot open
live spans in the parent; :meth:`Tracer.record` creates an already-closed
child span from a measured wall time, which is how the parallel scheduler
attributes per-window worker times to the current pass.

Disabled tracing is the common case and must cost nothing: the module-level
:data:`NULL_TRACER`/:data:`NULL_SPAN` singletons implement the same API as
pure no-ops, so instrumented call sites never branch — they always run
``with <tracer>.span(...)`` and the null objects make it a few attribute
lookups (< 2% of any engine's runtime; see ``benchmarks/bench_obs.py``).
"""

from __future__ import annotations

import json
import time
import warnings
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO

#: Cap on events stored per span — point events (e.g. gradient move
#: applications) are interesting individually but unbounded in number.
MAX_EVENTS_PER_SPAN = 256


def _jsonable(value: Any) -> Any:
    """Clamp an attribute value to something the JSONL sink can encode."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class Span:
    """One timed, attributed region; closed via the context manager."""

    __slots__ = ("name", "kind", "attrs", "events", "children",
                 "wall_s", "cpu_s", "span_id", "parent_id",
                 "dropped_events", "_t0", "_c0", "_tracer")

    def __init__(self, name: str, kind: str, tracer: "Tracer",
                 span_id: int, parent_id: Optional[int],
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.dropped_events = 0
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        self._tracer = tracer

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event on the span (bounded; overflow is counted)."""
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.dropped_events += 1
            return
        record = {"name": name}
        record.update(attrs)
        self.events.append(record)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe tree rooted at this span (the report representation)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            "events": [{k: _jsonable(v) for k, v in e.items()}
                       for e in self.events],
            "children": [c.to_dict() for c in self.children],
        }
        if self.dropped_events:
            out["dropped_events"] = self.dropped_events
        return out


class _NullSpan:
    """Shared no-op span: every method is a pass, nesting is free."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span returned by the disabled tracer.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: same API as :class:`Tracer`, costs nothing."""

    enabled = False
    sinks: List[Any] = []
    roots: List[Span] = []
    dropped_spans = 0

    def span(self, name: str, /, kind: str = "span",
             **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, kind: str = "span", wall_s: float = 0.0,
               **attrs: Any) -> None:
        pass

    def current(self) -> None:
        return None

    def graft(self, child: Any, **attrs: Any) -> None:
        pass


#: The singleton disabled tracer (the default active tracer).
NULL_TRACER = NullTracer()


class JsonlSink:
    """Streams span start/end events as JSON lines to a text file.

    The stream is flushed on every span *end*, so the file is tail-able
    while a long flow runs (``tail -f trace.jsonl``, or the live trace
    converter in :mod:`repro.obs.trace`); buffering span starts is fine —
    the matching end always pushes them out.  A start record's ``t`` is
    the span's own open time, so a grafted subtree keeps its timeline.
    """

    #: fed in tree order by the tracer that owns it, never by a child
    live = False

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream
        self._epoch = time.perf_counter()

    def start(self, span: Span) -> None:
        self._write({"ev": "start", "id": span.span_id,
                     "parent": span.parent_id, "name": span.name,
                     "kind": span.kind,
                     "t": round(span._t0 - self._epoch, 6)})

    def end(self, span: Span) -> None:
        record = {"ev": "end", "id": span.span_id,
                  "wall_s": span.wall_s, "cpu_s": span.cpu_s,
                  "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
                  "events": [{k: _jsonable(v) for k, v in e.items()}
                             for e in span.events]}
        if span.dropped_events:
            record["dropped_events"] = span.dropped_events
        self._write(record)
        self.stream.flush()

    def close(self) -> None:
        """Flush anything buffered (the stream itself belongs to the caller)."""
        self.stream.flush()

    def _write(self, record: Dict[str, Any]) -> None:
        self.stream.write(json.dumps(record, sort_keys=True) + "\n")


class Tracer:
    """Streams spans to its sinks and, when *retain* is set, keeps the tree.

    A sink takes ``start(span)`` when a span opens and ``end(span)`` when
    it closes.  ``max_spans`` bounds only the retained tree: a span past
    the cap is counted in :attr:`dropped_spans` and still reaches every
    sink, so it never silences the progress bus.
    """

    enabled = True

    def __init__(self, sinks: Sequence[Any] = (), retain: bool = True,
                 max_spans: int = 100_000) -> None:
        self.sinks = list(sinks)
        self.retain = retain
        self.max_spans = max_spans
        self.roots: List[Span] = []
        self.dropped_spans = 0
        self._stack: List[Span] = []
        self._next_id = 0

    def span(self, name: str, /, kind: str = "span", **attrs: Any) -> Span:
        """Open a child span of the innermost live span (context manager)."""
        span = self._new(name, kind, attrs)
        self._stack.append(span)
        for sink in self.sinks:
            sink.start(span)
        return span

    def record(self, name: str, kind: str = "span", wall_s: float = 0.0,
               **attrs: Any) -> None:
        """Attach an already-measured span (e.g. a worker-side window).

        The span is created closed, with ``wall_s`` taken verbatim and no
        CPU time (it was spent in another process).
        """
        span = self._new(name, kind, attrs)
        span.wall_s = wall_s
        for sink in self.sinks:
            sink.start(span)
            sink.end(span)
        self._attach(span, self.current())

    def current(self) -> Optional[Span]:
        """The innermost live span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def child(self, stream: bool) -> "Tracer":
        """A tracer for work to be grafted back here; with *stream* it feeds
        this tracer's live sinks as it goes, else only when grafted."""
        if stream:
            return Tracer([sink for sink in self.sinks if sink.live],
                          retain=self.retain, max_spans=self.max_spans)
        return Tracer(max_spans=self.max_spans)

    def graft(self, child: "Tracer", **attrs: Any) -> None:
        """Attach *child*'s finished tree, roots tagged with *attrs*, under
        the innermost live span: renumbered, and replayed in tree order to
        the sinks the child did not feed."""
        sinks = [sink for sink in self.sinks if sink not in child.sinks]
        parent = self.current()
        self.dropped_spans += child.dropped_spans
        for root in child.roots:
            root.attrs.update(attrs)
            self._replay(root, parent, sinks)

    # -- internal ------------------------------------------------------------

    def _new(self, name: str, kind: str, attrs: Dict[str, Any]) -> Span:
        parent = self.current()
        span = Span(name, kind, self, self._next_id,
                    parent.span_id if parent else None, attrs)
        self._next_id += 1
        return span

    def _replay(self, span: Span, parent: Optional[Span],
                sinks: List[Any]) -> None:
        span.span_id = self._next_id
        span.parent_id = parent.span_id if parent else None
        self._next_id += 1
        for sink in sinks:
            sink.start(span)
        children, span.children = span.children, []
        for child in children:
            self._replay(child, span, sinks)
        for sink in sinks:
            sink.end(span)
        self._attach(span, parent)

    def _close(self, span: Span) -> None:
        span.wall_s = time.perf_counter() - span._t0
        span.cpu_s = time.process_time() - span._c0
        # Tolerate out-of-order closes (a leaked span closed late): unwind
        # to the span being closed so the tree stays consistent.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        for sink in self.sinks:
            sink.end(span)
        self._attach(span, self.current())

    def _attach(self, span: Span, parent: Optional[Span]) -> None:
        if not self.retain:
            return
        if span.span_id >= self.max_spans:
            self.dropped_spans += 1
        elif parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)


class JsonlReader:
    """Streaming iterator over a span JSONL file, crash-write tolerant.

    A run killed mid-write (OOM, ``kill -9``, a chaos interrupt) leaves a
    truncated final line; offline consumers — the trace converter, history
    ingest — must read everything *before* the tear rather than raise.
    Undecodable lines are skipped and counted in :attr:`skipped` (one
    :class:`RuntimeWarning` is issued at the end of iteration), so silent
    corruption is still visible to the caller.

    The reader is re-iterable; counters accumulate across iterations.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.skipped = 0      #: undecodable lines tolerated so far

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        skipped_before = self.skipped
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.skipped += 1
                    continue
                yield record
        if self.skipped > skipped_before:
            warnings.warn(
                f"{self.path}: skipped {self.skipped - skipped_before} "
                f"undecodable JSONL line(s) — truncated write?",
                RuntimeWarning, stacklevel=2)


def iter_jsonl(path: str) -> JsonlReader:
    """Stream the records of a JSONL event file (truncation-tolerant).

    Returns a :class:`JsonlReader`; iterate it for the decoded records and
    read its ``skipped`` counter afterwards for the number of lines that
    failed to decode (a crash mid-write leaves at most one).
    """
    return JsonlReader(path)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Rebuild the span tree (as :meth:`Span.to_dict` dicts) from a JSONL sink.

    Spans whose ``end`` event is missing (crash mid-span) appear with
    ``wall_s = 0`` and whatever was known at start time.  Reads through
    :func:`iter_jsonl`, so a truncated final line is tolerated.
    """
    spans: Dict[int, Dict[str, Any]] = {}
    order: List[int] = []
    parents: Dict[int, Optional[int]] = {}
    for record in iter_jsonl(path):
        if record.get("ev") == "start":
            span_id = record["id"]
            spans[span_id] = {"name": record["name"],
                              "kind": record["kind"],
                              "wall_s": 0.0, "cpu_s": 0.0,
                              "attrs": {}, "events": [], "children": []}
            parents[span_id] = record.get("parent")
            order.append(span_id)
        elif record.get("ev") == "end":
            span = spans.get(record["id"])
            if span is None:
                continue
            span["wall_s"] = record.get("wall_s", 0.0)
            span["cpu_s"] = record.get("cpu_s", 0.0)
            span["attrs"] = record.get("attrs", {})
            span["events"] = record.get("events", [])
            if record.get("dropped_events"):
                span["dropped_events"] = record["dropped_events"]
    roots: List[Dict[str, Any]] = []
    for span_id in order:
        parent_id = parents[span_id]
        if parent_id is not None and parent_id in spans:
            spans[parent_id]["children"].append(spans[span_id])
        else:
            roots.append(spans[span_id])
    return roots
