"""Per-window telemetry for the parallel partition scheduler.

Every scheduled window produces one :class:`WindowRecord` — wall time,
achieved gain, whether the result was applied, and the fallback reason when
it was not.  Records aggregate into a :class:`ParallelReport` that the flow
can print after a pass: windows executed, improvement rate, fallback
breakdown, and the serial-equivalent runtime (the sum of worker wall times)
against the elapsed wall clock, whose ratio estimates the realized speedup.

The counter-based engines (MSPF, simulation-guided resubstitution, Boolean
difference) list their counters once, as the fields of a stats dataclass:
:func:`window_counters` turns a worker's stats into its window payload and
:meth:`ParallelReport.fold` folds the payloads back into the pass's stats.
Their metrics come from both ends: a worker publishes its window's
counters but :data:`APPLIED_FIELDS` (:func:`worker_counters`), and the
pass publishes those once folded (:func:`applied_counters`).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TypeVar

S = TypeVar("S")


#: The fields :meth:`ParallelReport.fold` counts over the windows the merge
#: applied, at their parent-level gain.  A worker sees one window of a
#: snapshot and cannot count them.
APPLIED_FIELDS = ("rewrites", "gain")


def window_counters(stats: Any) -> Dict[str, Any]:
    """A worker's window payload: every field of its engine's stats
    dataclass but ``partitions``, which only the pass knows."""
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats) if f.name != "partitions"}


def worker_counters(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The counters a worker publishes: its payload but
    :data:`APPLIED_FIELDS`."""
    return {name: value for name, value in payload.items()
            if name not in APPLIED_FIELDS}


def applied_counters(stats: Any) -> Dict[str, Any]:
    """The counters a pass publishes once folded: :data:`APPLIED_FIELDS`."""
    return {name: getattr(stats, name) for name in APPLIED_FIELDS}


@dataclass
class WindowRecord:
    """Telemetry of one scheduled window."""

    index: int
    engine: str
    size: int               #: internal nodes at extraction time
    leaves: int             #: boundary inputs
    wall_s: float = 0.0     #: worker wall time for this window
    applied: bool = False   #: optimized result spliced into the network
    gain: int = 0           #: parent-level node saving when applied
    fallback: Optional[str] = None
    #: engine counters reported by the worker (rewrites, bailouts, ...)
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation for the run report."""
        return {
            "index": self.index,
            "engine": self.engine,
            "size": self.size,
            "leaves": self.leaves,
            "wall_s": self.wall_s,
            "applied": self.applied,
            "gain": self.gain,
            "fallback": self.fallback,
            "payload": dict(self.payload),
        }


@dataclass
class ParallelReport:
    """Aggregated outcome of one parallel (or serial) partitioned pass."""

    engine: str
    jobs: int
    records: List[WindowRecord] = field(default_factory=list)
    elapsed_s: float = 0.0      #: wall clock of the whole pass
    pool_restarts: int = 0      #: process pools rebuilt after hard crashes

    @property
    def num_windows(self) -> int:
        """Number of partitions scheduled."""
        return len(self.records)

    @property
    def num_applied(self) -> int:
        """Windows whose optimized result was spliced back."""
        return sum(1 for r in self.records if r.applied)

    @property
    def num_fallbacks(self) -> int:
        """Windows that kept their original logic due to a failure."""
        return sum(1 for r in self.records if r.fallback is not None)

    @property
    def fallback_reasons(self) -> Dict[str, int]:
        """Histogram of fallback reasons."""
        return dict(Counter(r.fallback for r in self.records
                            if r.fallback is not None))

    @property
    def total_gain(self) -> int:
        """Total parent-level node saving across applied windows."""
        return sum(r.gain for r in self.records if r.applied)

    @property
    def worker_wall_s(self) -> float:
        """Sum of per-window worker wall times, fallbacks included."""
        return sum(r.wall_s for r in self.records)

    @property
    def useful_worker_wall_s(self) -> float:
        """Serial-equivalent runtime: worker wall times of the windows that
        completed (a timed-out or crashed window's wall time is not work a
        serial run would have kept, so counting it inflates the estimate)."""
        return sum(r.wall_s for r in self.records if r.fallback is None)

    @property
    def speedup(self) -> float:
        """Realized speedup estimate (useful worker time / elapsed time)."""
        if self.elapsed_s <= 0.0:
            return 1.0
        return self.useful_worker_wall_s / self.elapsed_s

    def counter(self, key: str) -> float:
        """Sum a numeric engine counter over every window payload."""
        total = 0
        for r in self.records:
            value = r.payload.get(key, 0)
            if isinstance(value, (int, float)):
                total += value
        return total

    def fold(self, stats: S) -> S:
        """Fill *stats*, an engine's counter dataclass, from this pass.

        ``partitions`` is the window count, ``rewrites`` sums the applied
        windows' payloads only, ``gain`` is their parent-level gain, and
        every other field sums every window's payload (a window whose
        worker failed has an empty payload and adds 0).  Returns *stats*.
        """
        for f in dataclasses.fields(stats):
            name = f.name
            if name == "partitions":
                value = self.num_windows
            elif name == "gain":
                value = self.total_gain
            elif name == "rewrites":
                value = sum(r.payload.get(name, 0) for r in self.records
                            if r.applied)
            else:
                value = self.counter(name)
            setattr(stats, name, value)
        return stats

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation for the run report (stable schema)."""
        return {
            "engine": self.engine,
            "jobs": self.jobs,
            "elapsed_s": self.elapsed_s,
            "pool_restarts": self.pool_restarts,
            "num_windows": self.num_windows,
            "num_applied": self.num_applied,
            "num_fallbacks": self.num_fallbacks,
            "fallback_reasons": self.fallback_reasons,
            "total_gain": self.total_gain,
            "worker_wall_s": self.worker_wall_s,
            "useful_worker_wall_s": self.useful_worker_wall_s,
            "speedup": self.speedup,
            "windows": [r.to_dict() for r in self.records],
        }

    def format_report(self) -> str:
        """Human-readable summary table of the pass."""
        lines = [
            f"parallel pass: engine={self.engine} jobs={self.jobs} "
            f"windows={self.num_windows}",
            f"  applied={self.num_applied}  gain={self.total_gain}  "
            f"fallbacks={self.num_fallbacks}  "
            f"pool_restarts={self.pool_restarts}",
            f"  elapsed={self.elapsed_s:.2f}s  "
            f"worker_time={self.worker_wall_s:.2f}s "
            f"(useful {self.useful_worker_wall_s:.2f}s)  "
            f"speedup={self.speedup:.2f}x",
        ]
        reasons = self.fallback_reasons
        if reasons:
            pretty = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
            lines.append(f"  fallback reasons: {pretty}")
        slowest = sorted(self.records, key=lambda r: -r.wall_s)[:5]
        for r in slowest:
            status = ("applied" if r.applied
                      else (r.fallback or "unchanged"))
            lines.append(f"  window {r.index:4d}: size={r.size:4d} "
                         f"leaves={r.leaves:3d} wall={r.wall_s:6.3f}s "
                         f"gain={r.gain:4d} [{status}]")
        return "\n".join(lines)


def aggregate_reports(reports: List[ParallelReport]) -> Dict[str, Any]:
    """Sum window telemetry across many passes (and many flows).

    :attr:`ParallelReport.speedup` and :attr:`ParallelReport.pool_restarts`
    describe **one pass of one flow**.  A batch run (the campaign
    orchestrator, or anything else invoking several flows) must not report
    the last flow's pass as if it were the whole batch — the historical
    pitfall this helper exists to prevent.  Everything additive is summed
    across *all* reports; the aggregate ``speedup`` is recomputed from the
    summed useful worker time over the summed elapsed time, which weights
    every pass by its actual duration instead of averaging ratios.

    The ``by_engine`` breakdown attributes the node deltas: historically
    engines were summed into batch totals only, so a campaign report could
    not say *which* engine won on which benchmark.  (``engines`` — the
    plain pass-count histogram — is kept for backward compatibility.)

    Returns a JSON-safe dict (empty-input safe: all zeros, ``speedup`` 1.0).
    """
    total_elapsed = sum(r.elapsed_s for r in reports)
    total_useful = sum(r.useful_worker_wall_s for r in reports)
    fallback_reasons: Dict[str, int] = {}
    engines: Dict[str, int] = {}
    by_engine: Dict[str, Dict[str, Any]] = {}
    for r in reports:
        engines[r.engine] = engines.get(r.engine, 0) + 1
        agg = by_engine.setdefault(r.engine, {
            "passes": 0, "num_windows": 0, "num_applied": 0,
            "num_fallbacks": 0, "total_gain": 0, "worker_wall_s": 0.0})
        agg["passes"] += 1
        agg["num_windows"] += r.num_windows
        agg["num_applied"] += r.num_applied
        agg["num_fallbacks"] += r.num_fallbacks
        agg["total_gain"] += r.total_gain
        agg["worker_wall_s"] += r.worker_wall_s
        for reason, count in r.fallback_reasons.items():
            fallback_reasons[reason] = fallback_reasons.get(reason, 0) + count
    return {
        "passes": len(reports),
        "engines": dict(sorted(engines.items())),
        "by_engine": dict(sorted(by_engine.items())),
        "num_windows": sum(r.num_windows for r in reports),
        "num_applied": sum(r.num_applied for r in reports),
        "num_fallbacks": sum(r.num_fallbacks for r in reports),
        "fallback_reasons": dict(sorted(fallback_reasons.items())),
        "total_gain": sum(r.total_gain for r in reports),
        "pool_restarts": sum(r.pool_restarts for r in reports),
        "elapsed_s": total_elapsed,
        "worker_wall_s": sum(r.worker_wall_s for r in reports),
        "useful_worker_wall_s": total_useful,
        "speedup": (total_useful / total_elapsed
                    if total_elapsed > 0.0 else 1.0),
    }
