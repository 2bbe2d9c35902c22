"""Span-trace profile export: JSONL → Chrome trace-event / speedscope.

The tracer's JSONL sink (``--trace-jsonl``) records the raw span stream;
this module converts it into the two de-facto standard interactive profile
formats so a flow can be inspected in ``chrome://tracing`` / Perfetto or
`speedscope.app <https://www.speedscope.app>`_ without any extra tooling:

* **Chrome trace-event** — one ``"X"`` (complete) event per span, with
  microsecond ``ts``/``dur`` and the span attributes under ``args``;
* **speedscope** — an ``evented`` profile of balanced ``O``/``C`` frame
  events.  Real traces contain worker-side :meth:`Tracer.record` spans
  whose measured wall time can overhang the enclosing parent span, so the
  exporter re-nests defensively: child intervals are emitted strictly
  inside their parent's open/close, the event clock is forced monotonic,
  and a parent's close is pushed late rather than ever closing out of
  LIFO order.

CLI
---
::

    python -m repro.obs.trace trace.jsonl --chrome out.json
    python -m repro.obs.trace trace.jsonl --speedscope out.json --check

``--check`` re-validates the written profiles (non-negative durations,
balanced and monotonic speedscope events) and fails the command when an
invariant is broken — the tiered CI's ``obs-smoke`` step runs it on a real
flow trace.  Exit codes: ``0`` converted (and valid), ``1`` validation
failed, ``2`` usage error, ``3`` unreadable/empty input.

Reads through :func:`repro.obs.tracer.iter_jsonl`, so a trace truncated by
a crash converts cleanly up to the tear.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import iter_jsonl


class TraceSpan:
    """One reconstructed span interval from the JSONL stream."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "t0", "wall_s",
                 "attrs", "children")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 kind: str, t0: float) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.t0 = t0
        self.wall_s = 0.0
        self.attrs: Dict[str, Any] = {}
        self.children: List["TraceSpan"] = []


def load_spans(path: str) -> Tuple[List[TraceSpan], int]:
    """Rebuild the span forest from a JSONL trace.

    Returns ``(roots, skipped)`` where *skipped* counts undecodable lines
    tolerated by the streaming reader.  Spans whose ``end`` record is
    missing (crash mid-span) keep ``wall_s = 0``.
    """
    reader = iter_jsonl(path)
    spans: Dict[int, TraceSpan] = {}
    order: List[int] = []
    for record in reader:
        ev = record.get("ev")
        if ev == "start":
            span = TraceSpan(record["id"], record.get("parent"),
                             str(record.get("name", "?")),
                             str(record.get("kind", "span")),
                             float(record.get("t", 0.0)))
            spans[span.span_id] = span
            order.append(span.span_id)
        elif ev == "end":
            span = spans.get(record.get("id"))
            if span is None:
                continue
            span.wall_s = float(record.get("wall_s", 0.0))
            span.attrs = record.get("attrs", {}) or {}
    roots: List[TraceSpan] = []
    for span_id in order:
        span = spans[span_id]
        parent = spans.get(span.parent_id) if span.parent_id is not None \
            else None
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots, reader.skipped


def _walk(roots: List[TraceSpan]):
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))


def to_chrome(roots: List[TraceSpan]) -> Dict[str, Any]:
    """The Chrome trace-event document (``"X"`` complete events, µs)."""
    events: List[Dict[str, Any]] = []
    for span in _walk(roots):
        events.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": round(span.t0 * 1e6, 3),
            "dur": round(max(span.wall_s, 0.0) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": dict(span.attrs),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def to_speedscope(roots: List[TraceSpan],
                  name: str = "repro flow") -> Dict[str, Any]:
    """The speedscope ``evented`` profile document.

    Frames are deduplicated by span name; open/close events are re-nested
    so the stream is balanced and the clock monotonic even when worker
    ``record`` spans overhang their parent.
    """
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []

    def frame_of(span_name: str) -> int:
        idx = frame_index.get(span_name)
        if idx is None:
            idx = len(frames)
            frame_index[span_name] = idx
            frames.append({"name": span_name})
        return idx

    def emit(span: TraceSpan, cursor: float) -> float:
        frame = frame_of(span.name)
        open_at = max(cursor, span.t0)
        events.append({"type": "O", "frame": frame, "at": open_at})
        cur = open_at
        for child in span.children:
            cur = emit(child, cur)
        close_at = max(cur, span.t0 + max(span.wall_s, 0.0), open_at)
        events.append({"type": "C", "frame": frame, "at": close_at})
        return close_at

    cursor = 0.0
    for root in roots:
        cursor = emit(root, cursor)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": "seconds",
            "startValue": 0.0,
            "endValue": cursor,
            "events": events,
        }],
        "exporter": "repro.obs.trace",
    }


# -- validation ----------------------------------------------------------------

def check_chrome(doc: Dict[str, Any]) -> List[str]:
    """Structural problems in a Chrome trace document ([] when valid)."""
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, event in enumerate(events):
        for field in ("name", "ph", "ts", "dur"):
            if field not in event:
                problems.append(f"event #{i}: missing {field!r}")
        if event.get("ph") != "X":
            problems.append(f"event #{i}: unexpected phase {event.get('ph')!r}")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            problems.append(f"event #{i}: negative dur")
    return problems


def check_speedscope(doc: Dict[str, Any]) -> List[str]:
    """Structural problems in a speedscope document ([] when valid)."""
    problems: List[str] = []
    frames = doc.get("shared", {}).get("frames")
    profiles = doc.get("profiles")
    if not isinstance(frames, list):
        return ["shared.frames is not a list"]
    if not isinstance(profiles, list) or not profiles:
        return ["profiles is empty"]
    for p, profile in enumerate(profiles):
        stack: List[int] = []
        last_at = float(profile.get("startValue", 0.0))
        for i, event in enumerate(profile.get("events", [])):
            at = event.get("at")
            frame = event.get("frame")
            if not isinstance(at, (int, float)) or at < last_at:
                problems.append(f"profile #{p} event #{i}: clock not "
                                f"monotonic ({at!r} < {last_at!r})")
                continue
            last_at = float(at)
            if not isinstance(frame, int) or not 0 <= frame < len(frames):
                problems.append(f"profile #{p} event #{i}: bad frame index "
                                f"{frame!r}")
                continue
            if event.get("type") == "O":
                stack.append(frame)
            elif event.get("type") == "C":
                if not stack or stack[-1] != frame:
                    problems.append(f"profile #{p} event #{i}: close of "
                                    f"frame {frame} breaks LIFO order")
                else:
                    stack.pop()
            else:
                problems.append(f"profile #{p} event #{i}: unknown type "
                                f"{event.get('type')!r}")
        if stack:
            problems.append(f"profile #{p}: {len(stack)} frame(s) left open")
        if last_at > float(profile.get("endValue", last_at)):
            problems.append(f"profile #{p}: events run past endValue")
    return problems


# -- CLI -----------------------------------------------------------------------

_USAGE = """usage: python -m repro.obs.trace TRACE.jsonl
           [--chrome OUT.json] [--speedscope OUT.json] [--check]

Convert a span JSONL trace (--trace-jsonl) into interactive profiles.
At least one of --chrome/--speedscope is required; --check re-validates
the written documents and fails on broken invariants.
Exit codes: 0 ok, 1 validation failed, 2 usage, 3 unreadable/empty input."""


def _pop_value(args: List[str], flag: str,
               default: Optional[str] = None) -> Optional[str]:
    """Remove ``flag value`` or ``flag=value`` from *args*; return the
    value, or *default* when the flag is absent (the obs CLIs' parser)."""
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


def main(argv: Optional[List[str]] = None) -> int:
    import sys
    args = list(sys.argv[1:] if argv is None else argv)
    chrome_out = _pop_value(args, "--chrome")
    speedscope_out = _pop_value(args, "--speedscope")
    check = "--check" in args
    args = [a for a in args if a != "--check"]
    if len(args) != 1 or args[0].startswith("-"):
        print(_USAGE, file=sys.stderr)
        return 2
    if chrome_out is None and speedscope_out is None:
        print(_USAGE, file=sys.stderr)
        return 2
    path = args[0]
    try:
        roots, skipped = load_spans(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 3
    if not roots:
        print(f"{path}: no spans found", file=sys.stderr)
        return 3
    if skipped:
        print(f"{path}: tolerated {skipped} undecodable line(s)",
              file=sys.stderr)
    total = sum(1 for _ in _walk(roots))
    status = 0
    if chrome_out is not None:
        doc = to_chrome(roots)
        with open(chrome_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
            handle.write("\n")
        print(f"chrome trace: {len(doc['traceEvents'])} events "
              f"-> {chrome_out}")
        if check:
            problems = check_chrome(doc)
            for problem in problems:
                print(f"chrome check: {problem}", file=sys.stderr)
            status = status or (1 if problems else 0)
    if speedscope_out is not None:
        doc = to_speedscope(roots, name=f"repro {path}")
        with open(speedscope_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
            handle.write("\n")
        print(f"speedscope profile: {len(doc['profiles'][0]['events'])} "
              f"events, {len(doc['shared']['frames'])} frames "
              f"-> {speedscope_out}")
        if check:
            problems = check_speedscope(doc)
            for problem in problems:
                print(f"speedscope check: {problem}", file=sys.stderr)
            status = status or (1 if problems else 0)
    if check and status == 0:
        print(f"check ok: {total} spans")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
