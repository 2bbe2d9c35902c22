"""Process-parallel partition execution engine.

The paper's scalability argument (Section III-B) bounds every Boolean
method inside partitions that are mutually independent — which makes each
partition a schedulable task.  The :class:`PartitionScheduler` turns a
partitioned pass into a three-phase pipeline:

1. **Extract** — every window is snapshot into a picklable
   :class:`~repro.parallel.window_io.WindowTask` *before any edit*, so all
   tasks are pure functions of the same network state.
2. **Execute** — tasks run through a registered engine worker, either
   inline (``jobs=1``, the exact serial path: same code, same order, no
   process machinery) or fanned out over a ``ProcessPoolExecutor``.
3. **Merge** — results are spliced back strictly in partition order with a
   structural-hash dedup (:func:`~repro.partition.partitioner.splice_window`).
   Because workers are deterministic pure functions and the merge order is
   fixed, the final network is byte-identical regardless of ``jobs`` or of
   worker completion order.

Fault isolation: a worker that raises returns a fallback result from inside
the worker; a worker that *dies* (segfault, OOM kill) breaks the pool, in
which case the window being waited on falls back and the remaining tasks are
retried in a fresh pool (bounded by ``max_pool_restarts``).  A window that
exceeds ``window_timeout_s`` falls back as well.  A fallback window simply
keeps its original logic — the network is never left in a corrupt state.

Fault injection: a seeded :class:`repro.guard.chaos.FaultPlan` can be
threaded through the scheduler (``chaos=`` / ``chaos_scope=``) to inject
worker crashes, window timeouts, corrupt (non-equivalent) results, and
forced BDD bailouts at deterministic window sites.  The plan is evaluated
in the *parent* before submission, so every injected fault is known and
reported (window payload key ``"chaos"``) even when the worker it hit
never answers; injected crashes are attributed to the window the plan
picked, which keeps chaos runs deterministic for a fixed seed and jobs
count.  Window-level faults are one-shot: a window retried after an
injected pool crash runs clean.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.aig.aig import Aig
from repro.errors import BddLimitError
from repro.guard.chaos import corrupt_window_result, in_worker_process
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.parallel.shared_pool import SharedProcessPool, default_mp_context
from repro.parallel.stats import ParallelReport, WindowRecord
from repro.parallel.window_io import (
    CompactAig,
    WindowResult,
    WindowTask,
    extract_task,
)
from repro.partition.partitioner import (
    PartitionConfig,
    Window,
    partition_network,
    refresh_window,
    splice_window,
)

#: Engine registry: name -> ``fn(sub_aig, config) -> (changed, optimized
#: sub_aig or None, payload counters)``.  Workers resolve engines by *name*,
#: so only the name, the task, and the config cross the process boundary.
ENGINES: Dict[str, Callable[[Aig, Any], Tuple[bool, Optional[Aig], Dict[str, Any]]]] = {}


def register_engine(name: str, fn: Callable) -> Callable:
    """Register a window-optimization engine under *name* (idempotent)."""
    ENGINES[name] = fn
    return fn


def _resolve_engine(name: str) -> Callable:
    """Look up an engine, importing the built-in SBM engines on demand."""
    if name not in ENGINES:
        # Lazy import avoids a cycle (the sbm modules import this module to
        # register themselves) and makes resolution work under any
        # multiprocessing start method.
        from repro.sbm import boolean_difference  # noqa: F401
        from repro.sbm import hetero_kernel  # noqa: F401
        from repro.sbm import mspf  # noqa: F401
        from repro.sbm import simresub  # noqa: F401
    return ENGINES[name]


def _fallback_result(task: WindowTask, reason: str,
                     wall_s: float = 0.0) -> WindowResult:
    return WindowResult(index=task.index, changed=False, optimized=None,
                        wall_s=wall_s, fallback=reason)


#: Reserved payload key carrying the worker's local metrics snapshot back
#: to the parent, where it merges in deterministic partition order.
OBS_PAYLOAD_KEY = "_obs_metrics"


def run_window_task(engine_name: str, task: WindowTask, config: Any,
                    collect_metrics: Optional[bool] = None,
                    inject: Optional[str] = None,
                    timeout_hint: Optional[float] = None) -> WindowResult:
    """Worker entry point: decode, optimize, re-encode one window.

    Runs in a worker process (or inline when ``jobs=1``).  Any exception is
    converted into a fallback result so a failing window can never poison
    the merge phase.

    The engine runs in a fresh obs scope with no tracer — never the
    parent's, whose sinks and span stack must not be touched from a forked
    worker.  When ``collect_metrics`` is true (``None`` means "iff
    observability is enabled in this process") the scope has a local
    metrics registry, whose snapshot is shipped back in the result payload
    under :data:`OBS_PAYLOAD_KEY`.  The scheduler passes the parent's
    setting explicitly so the behaviour does not depend on the
    multiprocessing start method.

    *inject* names a fault drawn by a :class:`repro.guard.chaos.FaultPlan`
    for this window; *timeout_hint* is the scheduler's per-window budget,
    used to make an injected ``window-timeout`` overrun it for real.
    Fault kinds that need process machinery (crash, timeout) degrade to
    plain fallbacks when executed inline.
    """
    start = time.perf_counter()
    if inject == "worker-crash":
        if in_worker_process():
            os._exit(23)  # hard exit: breaks the pool, like a real segfault
        return _fallback_result(task, "chaos:worker-crash")
    if inject == "window-timeout":
        if timeout_hint is not None and in_worker_process():
            # Overrun the parent's per-window deadline for real; the parent
            # has already fallen back by the time this result is produced.
            time.sleep(timeout_hint * 1.5 + 0.05)
        return _fallback_result(task, "chaos:window-timeout",
                                wall_s=time.perf_counter() - start)
    if collect_metrics is None:
        collect_metrics = obs.enabled()
    local = MetricsRegistry() if collect_metrics else NULL_METRICS
    with obs.Scope(metrics=local):
        try:
            if inject == "bdd-limit":
                raise BddLimitError("chaos: forced BDD node limit")
            engine = _resolve_engine(engine_name)
            sub = task.compact.to_aig()
            changed, optimized, payload = engine(sub, config)
            compact = None
            if changed and optimized is not None:
                compact = CompactAig.from_aig(optimized)
            result = WindowResult(index=task.index,
                                  changed=compact is not None,
                                  optimized=compact, payload=payload,
                                  wall_s=time.perf_counter() - start)
            if inject == "corrupt-result":
                result = corrupt_window_result(task, result)
        except Exception as exc:  # fault isolation: report, don't propagate
            result = _fallback_result(
                task, f"worker-error:{type(exc).__name__}: {exc}",
                wall_s=time.perf_counter() - start)
    if not local.is_empty():
        result.payload[OBS_PAYLOAD_KEY] = local.snapshot()
    return result


class PartitionScheduler:
    """Fan partition windows out over worker processes; merge deterministically.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` executes every task inline in partition
        order (the exact serial path); ``None`` or ``0`` means
        ``os.cpu_count()``.
    window_timeout_s:
        Per-window wall-clock budget when ``jobs > 1``; an overrunning
        window falls back to its original logic.  ``None`` disables the
        timeout (the default — timeouts trade determinism for latency,
        since a machine-dependent timeout can drop a window).
    max_pool_restarts:
        How many times a hard-crashed process pool is rebuilt before the
        remaining windows are abandoned to their fallbacks.
    chaos:
        Optional :class:`repro.guard.chaos.FaultPlan`; when set, each
        window site is asked for an injected fault before execution.
    chaos_scope:
        Site-name prefix (the flow passes ``it<effort>:<stage>``) so the
        same engine run in different stages draws independent faults.
    pool:
        Optional :class:`~repro.parallel.shared_pool.SharedProcessPool`.
        When set, tasks are submitted into the shared executor instead of
        a private per-pass pool (``jobs`` defaults to the pool width), a
        broken executor is rebuilt through the pool's generation protocol,
        and a timed-out window's worker slot is simply abandoned until the
        stale task finishes (a shared pool cannot be torn down mid-pass).
    """

    def __init__(self, jobs: Optional[int] = 1,
                 window_timeout_s: Optional[float] = None,
                 max_pool_restarts: int = 2,
                 chaos: Optional[Any] = None,
                 chaos_scope: str = "",
                 pool: Optional[SharedProcessPool] = None) -> None:
        if pool is not None and (jobs is None or jobs <= 1):
            jobs = pool.workers
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.window_timeout_s = window_timeout_s
        self.max_pool_restarts = max_pool_restarts
        self.chaos = chaos
        self.chaos_scope = chaos_scope
        self.pool = pool

    # -- public API ----------------------------------------------------------

    def run_pass(self, aig: Aig, engine: str, config: Any,
                 partition_config: Optional[PartitionConfig] = None,
                 windows: Optional[List[Window]] = None) -> ParallelReport:
        """Partition *aig*, optimize every window, splice results back.

        Edits *aig* in place and returns the pass telemetry.
        """
        start = time.perf_counter()
        with obs.span(f"pass:{engine}", kind="pass",
                      engine=engine) as pass_span:
            if windows is None:
                windows = partition_network(aig, partition_config)
            # Normalize every window against the (still unedited) network
            # before snapshotting: refresh re-sorts the member nodes into
            # topological order and recomputes the boundary, exactly as the
            # serial engines did per window.  The node order matters beyond
            # hygiene — the SOP engines' elimination cost is very sensitive
            # to it.
            windows = [w for w in (refresh_window(aig, w) for w in windows)
                       if w is not None]
            tasks = [extract_task(aig, w, i) for i, w in enumerate(windows)]
            injections = self._draw_faults(engine, tasks)
            results, restarts = self._execute(engine, tasks, config,
                                              injections)
            report = ParallelReport(engine=engine, jobs=self.jobs,
                                    pool_restarts=restarts)
            registry = obs.metrics()
            tracer = obs.tracer()
            for done, (window, task) in enumerate(zip(windows, tasks), 1):
                result = results.get(task.index)
                if result is None:
                    result = _fallback_result(task, "missing-result")
                # Worker metrics merge here, in partition order — the only
                # order-dependent merge op is the gauge last-write, so the
                # registry ends up identical for every jobs value.
                registry.merge(result.payload.pop(OBS_PAYLOAD_KEY, None))
                record = self._merge_window(aig, engine, window, task, result)
                kind = injections.get(task.index)
                if kind is not None:
                    # Surface the injected fault even when the worker died
                    # before it could report (the parent drew the fault).
                    record.payload.setdefault("chaos", kind)
                    registry.inc("guard.chaos.injected", engine=engine,
                                 kind=kind)
                report.records.append(record)
                # Window spans are recorded by the parent, in partition
                # order, so the progress stream (a window span is a
                # ``window`` event) is identical for every jobs value.
                tracer.record(f"window[{record.index}]", kind="window",
                              wall_s=record.wall_s, engine=engine,
                              index=record.index, done=done,
                              total=len(tasks), size=record.size,
                              leaves=record.leaves, applied=record.applied,
                              gain=record.gain, fallback=record.fallback)
            report.elapsed_s = time.perf_counter() - start
            self._observe_report(report, pass_span)
            obs.record_parallel_report(report)
        return report

    @staticmethod
    def _observe_report(report: ParallelReport, pass_span) -> None:
        """Publish the pass outcome on its span and in the registry."""
        if not obs.tracer().enabled:
            return
        engine = report.engine
        pass_span.set("windows", report.num_windows)
        pass_span.set("applied", report.num_applied)
        pass_span.set("gain", report.total_gain)
        pass_span.set("fallbacks", report.num_fallbacks)
        pass_span.set("pool_restarts", report.pool_restarts)
        registry = obs.metrics()
        registry.inc("parallel.windows", report.num_windows, engine=engine)
        registry.inc("parallel.applied", report.num_applied, engine=engine)
        registry.inc("parallel.gain", report.total_gain, engine=engine)
        if report.pool_restarts:
            registry.inc("parallel.pool_restarts", report.pool_restarts,
                         engine=engine)
        for reason, count in sorted(report.fallback_reasons.items()):
            registry.inc("parallel.fallback", count, engine=engine,
                         reason=reason)

    # -- execution -----------------------------------------------------------

    def _draw_faults(self, engine: str,
                     tasks: List[WindowTask]) -> Dict[int, str]:
        """Ask the fault plan about every window site, in partition order.

        Drawing up front in the parent makes the injection schedule
        independent of worker scheduling and visible even for faults that
        kill the worker before it can report.
        """
        if self.chaos is None:
            return {}
        prefix = f"{self.chaos_scope}:" if self.chaos_scope else ""
        injections: Dict[int, str] = {}
        for task in tasks:
            kind = self.chaos.draw(f"{prefix}{engine}:w{task.index}")
            if kind is not None:
                injections[task.index] = kind
        return injections

    def _execute(self, engine: str, tasks: List[WindowTask], config: Any,
                 injections: Optional[Dict[int, str]] = None
                 ) -> Tuple[Dict[int, WindowResult], int]:
        collect = obs.enabled()
        injections = injections or {}
        if self.jobs <= 1 or len(tasks) <= 1:
            return ({t.index: run_window_task(
                        engine, t, config, collect_metrics=collect,
                        inject=injections.get(t.index),
                        timeout_hint=self.window_timeout_s)
                     for t in tasks}, 0)
        return self._execute_pool(engine, tasks, config, collect, injections)

    def _execute_pool(self, engine: str, tasks: List[WindowTask], config: Any,
                      collect: bool = False,
                      injections: Optional[Dict[int, str]] = None
                      ) -> Tuple[Dict[int, WindowResult], int]:
        results: Dict[int, WindowResult] = {}
        pending = list(tasks)
        injections = dict(injections or {})
        restarts = 0
        while pending:
            pending = self._pool_round(engine, pending, config, results,
                                       collect, injections)
            if pending:
                if restarts >= self.max_pool_restarts:
                    # Restart budget exhausted: every remaining window keeps
                    # its original logic.  ``pool_restarts`` reports exactly
                    # the number of pools rebuilt, i.e. the cap.
                    for task in pending:
                        results[task.index] = _fallback_result(
                            task, "pool-restart-limit")
                    break
                restarts += 1
        return results, restarts

    def _pool_round(self, engine: str, tasks: List[WindowTask], config: Any,
                    results: Dict[int, WindowResult],
                    collect: bool = False,
                    injections: Optional[Dict[int, str]] = None
                    ) -> List[WindowTask]:
        """Run one process pool; return the tasks that must be retried.

        A worker *exception* is handled inside :func:`run_window_task` and
        arrives as an ordinary fallback result.  This method only deals with
        the hard failures: per-window timeouts and pool-breaking crashes.

        With a :class:`SharedProcessPool` the executor belongs to the
        campaign, not to this pass: submission goes through
        :meth:`SharedProcessPool.submit` (which labels and steal-counts
        it), and instead of tearing a broken executor down this method
        asks the pool to rebuild the generation it observed.
        """
        retry: List[WindowTask] = []
        tainted = False  # a timed-out worker still occupies its slot
        broken = False
        injections = injections if injections is not None else {}
        shared = self.pool
        private: Optional[ProcessPoolExecutor] = None
        if shared is not None:
            generation = shared.generation
            submit = shared.submit
        else:
            generation = 0
            private = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)),
                mp_context=default_mp_context())
            submit = private.submit
        try:
            futures = [(task, submit(run_window_task, engine, task,
                                     config, collect,
                                     injections.get(task.index),
                                     self.window_timeout_s))
                       for task in tasks]
            for task, future in futures:
                if broken:
                    # The pool died while this future was pending; anything
                    # already finished (or already attributed) is kept, the
                    # rest is retried.
                    if task.index in results:
                        continue
                    if future.done() and not future.cancelled():
                        try:
                            results[task.index] = future.result()
                            continue
                        except Exception:
                            pass
                    retry.append(task)
                    continue
                try:
                    results[task.index] = future.result(
                        timeout=self.window_timeout_s)
                except FutureTimeoutError:
                    results[task.index] = _fallback_result(
                        task, "timeout", wall_s=self.window_timeout_s or 0.0)
                    future.cancel()
                    tainted = True
                except BrokenProcessPool:
                    broken = True
                    crashed = [t for t in tasks
                               if injections.get(t.index) == "worker-crash"
                               and t.index not in results]
                    if crashed:
                        # The fault plan knows which worker it killed:
                        # attribute the crash to the injected window(s) and
                        # retry everything else (this one included) in a
                        # fresh pool.  Injections are one-shot, so retried
                        # windows run clean — chaos runs stay deterministic.
                        for t in crashed:
                            results[t.index] = _fallback_result(
                                t, "worker-crashed")
                            injections.pop(t.index, None)
                        if task.index not in results:
                            retry.append(task)
                    else:
                        # Cannot tell which worker died: this window falls
                        # back, every unfinished one is retried in a fresh
                        # pool.
                        results[task.index] = _fallback_result(
                            task, "worker-crashed")
                except Exception as exc:
                    results[task.index] = _fallback_result(
                        task, f"pool-error:{type(exc).__name__}")
        except BrokenProcessPool:
            # The pool broke during submission; retry everything unassigned.
            broken = True
            for task in tasks:
                if task.index not in results and task not in retry:
                    retry.append(task)
        finally:
            if private is not None:
                private.shutdown(wait=not (tainted or broken),
                                 cancel_futures=True)
            elif broken and shared is not None:
                shared.rebuild(generation)
        return retry

    # -- merge ---------------------------------------------------------------

    def _merge_window(self, aig: Aig, engine: str, window: Window,
                      task: WindowTask, result: WindowResult) -> WindowRecord:
        """Splice one window's result back; fall back on any inconsistency.

        The guards mirror the serial engines' contracts: a window is only
        replaced when its boundary is still alive, the optimized sub-network
        is no larger than the window's current logic, and the actual splice
        delta did not grow the network (structural-hash interactions with
        earlier splices can differ from the worker's local measurement).
        """
        record = WindowRecord(index=task.index, engine=engine,
                              size=task.size, leaves=len(window.leaves),
                              wall_s=result.wall_s, payload=result.payload,
                              fallback=result.fallback)
        if result.fallback is not None or not result.changed:
            return record
        if result.optimized is None:
            return record
        if any(aig.is_dead(leaf) for leaf in window.leaves):
            # An earlier splice replaced one of our boundary nodes; the
            # precomputed result no longer has a valid support to attach to.
            record.fallback = "boundary-changed"
            return record
        live = refresh_window(aig, window)
        if live is None:
            record.fallback = "window-died"
            return record
        optimized = result.optimized.to_aig()
        if optimized.num_ands > live.size:
            record.fallback = "stale-no-improvement"
            return record
        before = aig.num_ands
        delta = splice_window(aig, window, optimized)
        if delta > 0:
            # Structural hashing interacted badly with surrounding logic;
            # restore the original window structure (function is unchanged
            # either way, exactly as the serial kernel engine does).
            splice_window(aig, window, task.compact.to_aig())
            record.fallback = "grew-reverted"
            record.gain = before - aig.num_ands
            return record
        record.applied = True
        record.gain = -delta
        return record


def run_partitioned_pass(aig: Aig, engine: str, config: Any,
                         partition_config: Optional[PartitionConfig] = None,
                         jobs: Optional[int] = 1,
                         window_timeout_s: Optional[float] = None,
                         chaos: Optional[Any] = None,
                         chaos_scope: str = "",
                         pool: Optional[SharedProcessPool] = None
                         ) -> ParallelReport:
    """Convenience wrapper: one scheduler, one pass, one report."""
    scheduler = PartitionScheduler(jobs=jobs,
                                   window_timeout_s=window_timeout_s,
                                   chaos=chaos, chaos_scope=chaos_scope,
                                   pool=pool)
    return scheduler.run_pass(aig, engine, config, partition_config)
