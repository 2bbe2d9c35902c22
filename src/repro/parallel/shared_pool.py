"""One process pool shared by many flows: the campaign execution substrate.

Historically every :class:`~repro.parallel.scheduler.PartitionScheduler`
pass built (and tore down) its own ``ProcessPoolExecutor`` — fine for one
flow, wasteful for a campaign that runs dozens of flows back to back: each
pass re-pays worker startup, and a pass with fewer windows than workers
leaves the spare slots idle while *other* flows have windows queued.

A :class:`SharedProcessPool` is that executor lifted to campaign scope:

* **one pool, many schedulers** — every flow's partition passes submit
  into the same executor, so worker processes are started once per
  campaign instead of once per pass;
* **work stealing across benchmarks** — submissions carry the submitting
  job's label (bound per thread via :meth:`bind`); whenever a window is
  submitted while another job also has windows in flight, the pool slots
  are being contended and the submission is counted as *stolen* — idle
  capacity left by one benchmark's serial stages is absorbed by another
  benchmark's windows;
* **crash recovery by generation** — a worker crash breaks the executor
  for every scheduler using it.  Each scheduler notes the pool
  *generation* before submitting and asks for a rebuild of exactly that
  generation on failure; the first request wins, later ones see the fresh
  executor already in place.  Per-scheduler retry budgets
  (``max_pool_restarts``) are unchanged.

Determinism: the pool changes only *where* a window executes, never what
it computes or the order results are merged (the scheduler still merges
in partition order), so flows keep producing bit-identical networks with
or without a shared pool — the property the campaign result cache relies
on (see :mod:`repro.campaign.cache`).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Dict, Optional


def default_mp_context():
    """Prefer ``fork``: cheap worker startup, no re-import per task."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context()


class SharedProcessPool:
    """A thread-safe, rebuildable ``ProcessPoolExecutor`` for many flows.

    Parameters
    ----------
    workers:
        Worker process count; ``None``/``0`` means ``os.cpu_count()``.

    The pool is created eagerly (and its workers pre-spawned) so that, in
    the common campaign setup, every ``fork`` happens from the main thread
    before any job threads exist.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers if workers and workers > 0 \
            else (os.cpu_count() or 1)
        self._mp_context = default_mp_context()
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self.rebuilds = 0
        self._label = threading.local()
        self._inflight: Dict[str, int] = {}
        #: windows submitted per job label (telemetry)
        self.submitted: Dict[str, int] = {}
        #: windows submitted while another job had windows in flight
        self.stolen: Dict[str, int] = {}
        self._executor = self._new_executor()
        # Pre-spawn the worker processes from the constructing thread.
        for _ in range(self.workers):
            self._executor.submit(int)

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=self._mp_context)

    # -- job binding ----------------------------------------------------------

    def bind(self, label: str) -> None:
        """Tag every submission from *this thread* with the job *label*."""
        self._label.value = label

    def _current_label(self) -> str:
        return getattr(self._label, "value", "")

    # -- executor access ------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic executor generation; bumps on every rebuild."""
        return self._generation

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit one task under the thread's bound job label.

        Raises whatever the underlying executor raises (notably
        ``BrokenProcessPool`` after a worker crash) — callers handle that
        exactly as they would with a private pool, then call
        :meth:`rebuild`.
        """
        label = self._current_label()
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedProcessPool is shut down")
            others_active = any(count > 0 for job, count
                                in self._inflight.items() if job != label)
            future = self._executor.submit(fn, *args)
            self.submitted[label] = self.submitted.get(label, 0) + 1
            if others_active:
                self.stolen[label] = self.stolen.get(label, 0) + 1
            self._inflight[label] = self._inflight.get(label, 0) + 1
        future.add_done_callback(lambda _f: self._settle(label))
        return future

    def _settle(self, label: str) -> None:
        with self._lock:
            remaining = self._inflight.get(label, 0) - 1
            if remaining > 0:
                self._inflight[label] = remaining
            else:
                self._inflight.pop(label, None)

    def rebuild(self, generation: int) -> int:
        """Replace the executor *iff* it is still the broken *generation*.

        Concurrent schedulers observing the same crash all call in; only
        the first swap happens, the rest return the already-current
        generation.  Returns the generation now in effect.
        """
        stale = None
        with self._lock:
            if not self._closed and generation == self._generation:
                stale = self._executor
                self._executor = self._new_executor()
                self._generation += 1
                self.rebuilds += 1
            current = self._generation
        if stale is not None:
            stale.shutdown(wait=False, cancel_futures=True)
        return current

    # -- telemetry ------------------------------------------------------------

    def stolen_windows(self, label: str) -> int:
        """Stolen-submission count for one job label."""
        return self.stolen.get(label, 0)

    @property
    def total_stolen(self) -> int:
        """Stolen-submission count across all labels."""
        return sum(self.stolen.values())

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting work and release the worker processes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
        executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "SharedProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
