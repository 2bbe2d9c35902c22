"""Observability for the SBM flow: spans, metrics, run reports, progress.

Spans are the only producer of telemetry; the rest are sinks and views:

* :mod:`repro.obs.tracer` — the span tracer (``campaign → job → flow →
  iteration → stage → pass → window``), the tree it retains and its JSONL
  sink,
* :mod:`repro.obs.live` — the progress bus, a tracer sink behind
  ``--progress`` and ``--progress-jsonl``,
* :mod:`repro.obs.metrics` — counters/gauges/histograms for engine-level
  events (move selections, BDD/MSPF bailouts, SAT-sweep merges, ...),
* :mod:`repro.obs.report` — the stable JSON run-report schema.

Instrumented code talks to its thread's current :class:`Scope` — a
tracer, a metrics registry and report lists — through :func:`span`,
:func:`metrics` and :func:`tracer`, and hands it every finished
``FlowStats``, ``ParallelReport``, ``GuardReport`` and ``CampaignReport``
through the ``record_*`` functions.  The root scope is the
:class:`ObsSession` that :func:`enable` opens (``--trace``,
``--report-json``); with no session and no bus it is :data:`NULL_SCOPE`,
whose no-op tracer and registry make instrumentation nearly free:

    session = obs.enable(jsonl_path="trace.jsonl")
    try:
        optimized, stats = sbm_flow(aig, config)
    finally:
        obs.disable()
    report = build_report(session, command="optimize adder")

A tracer has one span stack, so a unit of work that may run beside others
— a campaign job, a search candidate — records into a child scope
(:meth:`Scope.child`) entered on its own thread, and the parent adopts
the children in job or candidate order (:meth:`Scope.adopt`): the child's
tree is grafted under the parent's innermost live span, its metrics
merged and its reports appended (a search takes only each round winner's
metrics and reports), so a concurrent run reports what a serial one does.
Worker processes never touch the parent's scope: each window task runs in
a fresh scope whose registry snapshot returns in the window payload (see
:mod:`repro.parallel.scheduler`).
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional

from repro.obs.live import BusSink, EventBus
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    Span,
    Tracer,
    iter_jsonl,
    load_jsonl,
)

#: The report lists a scope keeps, in run-report order.
_SECTIONS = ("flow_stats", "parallel_reports", "guard_reports",
             "campaign_reports")

_local = threading.local()


class Scope:
    """One thread of work's telemetry: a tracer, a registry, its reports."""

    def __init__(self, tracer: Any = NULL_TRACER,
                 metrics: Any = NULL_METRICS,
                 keep_reports: bool = True) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.keep_reports = keep_reports
        self.flow_stats: List[Any] = []
        self.parallel_reports: List[Any] = []
        self.guard_reports: List[Any] = []
        self.campaign_reports: List[Any] = []
        self._outer: List[Optional[Scope]] = []

    def __enter__(self) -> "Scope":
        """Make this scope the current one on this thread."""
        self._outer.append(getattr(_local, "scope", None))
        _local.scope = self
        return self

    def __exit__(self, *exc: Any) -> bool:
        _local.scope = self._outer.pop()
        return False

    def child(self, stream: bool = True) -> "Scope":
        """A scope for one unit of work, to be taken back by :meth:`adopt`.

        It traces and records metrics only if this scope does, and always
        keeps its reports, so the caller can read them first.  *stream* is
        :meth:`Tracer.child`'s: stream to the live sinks, or wait.
        """
        tracer = self.tracer.child(stream) if self.tracer.enabled \
            else NULL_TRACER
        metrics = MetricsRegistry() if self.metrics.enabled else NULL_METRICS
        return Scope(tracer, metrics)

    def adopt(self, child: "Scope", reports: bool = True,
              **attrs: Any) -> None:
        """Take in a finished child scope.

        Its span tree is grafted under this scope's innermost live span,
        with *attrs* set on every root; with *reports*, its metrics are
        merged and its report lists appended to this scope's.
        """
        self.tracer.graft(child.tracer, **attrs)
        if reports:
            self.metrics.merge(child.metrics.snapshot())
            for section in _SECTIONS:
                for report in getattr(child, section):
                    self._record(section, report)

    def _record(self, section: str, report: Any) -> None:
        if self.keep_reports:
            getattr(self, section).append(report)


#: The root scope while neither a session nor a bus is active.
NULL_SCOPE = Scope(keep_reports=False)


class ObsSession(Scope):
    """The root scope of an enabled run.

    It retains the span tree, records metrics, keeps every report handed
    to it, and owns the optional JSONL trace file.
    """

    def __init__(self, jsonl_path: Optional[str] = None,
                 max_spans: int = 100_000) -> None:
        self._sink_file = None
        sinks = []
        if jsonl_path is not None:
            self._sink_file = open(jsonl_path, "w", encoding="utf-8")
            sinks.append(JsonlSink(self._sink_file))
        super().__init__(Tracer(sinks, max_spans=max_spans),
                         MetricsRegistry())

    def close(self) -> None:
        """Detach the sinks and close the JSONL file (safe to call twice)."""
        self.tracer.sinks = []
        if self._sink_file is not None:
            self._sink_file.close()
            self._sink_file = None


_root: Scope = NULL_SCOPE
_session: Optional[ObsSession] = None
_bus: Optional[EventBus] = None


def _install_root() -> None:
    """Rebuild the root scope from the active session and bus."""
    global _root
    live = [BusSink(_bus)] if _bus is not None else []
    if _session is not None:
        tracer = _session.tracer
        tracer.sinks = [sink for sink in tracer.sinks if not sink.live] + live
        _root = _session
    elif live:
        # Progress only: spans stream to the bus and no tree is kept.
        _root = Scope(Tracer(live, retain=False), keep_reports=False)
    else:
        _root = NULL_SCOPE


# -- global context -----------------------------------------------------------

def enable(jsonl_path: Optional[str] = None,
           max_spans: int = 100_000) -> ObsSession:
    """Open a session as the root scope; returns it."""
    global _session
    if _session is not None:
        disable()
    _session = ObsSession(jsonl_path=jsonl_path, max_spans=max_spans)
    _install_root()
    return _session


def disable() -> None:
    """Close the session; the session object stays readable."""
    global _session
    if _session is not None:
        _session.close()
    _session = None
    _install_root()


def enable_live(bus: Optional[EventBus] = None) -> EventBus:
    """Stream the progress spans to *bus* (a new one by default)."""
    global _bus
    _bus = bus if bus is not None else EventBus()
    _install_root()
    return _bus


def disable_live() -> Optional[EventBus]:
    """Stop streaming; returns the bus that was installed (drainable)."""
    global _bus
    bus, _bus = _bus, None
    _install_root()
    return bus


def session() -> Optional[ObsSession]:
    """The active session, or None."""
    return _session


def current() -> Scope:
    """This thread's current scope (the root scope outside any child)."""
    return getattr(_local, "scope", None) or _root


def enabled() -> bool:
    """True while the current scope records metrics (under a session)."""
    return current().metrics.enabled


def tracer() -> Tracer:
    """The current scope's tracer (the null singleton when off)."""
    return current().tracer


def metrics() -> MetricsRegistry:
    """The current scope's registry (the null singleton when off)."""
    return (getattr(_local, "scope", None) or _root).metrics


def span(name: str, /, kind: str = "span", **attrs: Any):
    """Open a span on the current tracer (no-op singleton when disabled)."""
    return (getattr(_local, "scope", None) or _root).tracer.span(
        name, kind=kind, **attrs)


def record_flow_stats(stats: Any) -> None:
    """Hand a finished FlowStats to the current scope."""
    current()._record("flow_stats", stats)


def record_parallel_report(report: Any) -> None:
    """Hand a finished ParallelReport to the current scope."""
    current()._record("parallel_reports", report)


def record_guard_report(report: Any) -> None:
    """Hand a flow's GuardReport to the current scope."""
    current()._record("guard_reports", report)


def record_campaign_report(report: Any) -> None:
    """Hand a finished campaign report to the current scope."""
    current()._record("campaign_reports", report)


__all__ = [
    "BusSink",
    "EventBus",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_SCOPE",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "ObsSession",
    "Scope",
    "Span",
    "Tracer",
    "current",
    "disable",
    "disable_live",
    "enable",
    "enable_live",
    "enabled",
    "iter_jsonl",
    "load_jsonl",
    "metrics",
    "record_campaign_report",
    "record_flow_stats",
    "record_guard_report",
    "record_parallel_report",
    "session",
    "span",
    "tracer",
]
