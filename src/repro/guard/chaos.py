"""Deterministic fault injection for the hardened flow (``repro.guard.chaos``).

A :class:`FaultPlan` is a *pure function from site name to fault*: each
injection site (one partition window of one stage, or one stage boundary)
hashes ``(seed, site)`` into a uniform draw, so the same seed injects the
same faults at the same sites on every run, regardless of scheduling or
process timing.  That is what lets the chaos CI job assert exact outcomes
("this window crashed its worker, that stage produced a non-equivalent
result, and the flow still converged") and what makes
interrupt-then-rerun runs comparable against uninterrupted ones.

Fault kinds (``FAULT_KINDS``):

* ``worker-crash`` — the worker process hard-exits (``os._exit``),
  breaking the process pool; inline execution converts it to a fallback.
* ``window-timeout`` — the worker sleeps past the window budget so the
  parent's per-window timeout fires; inline execution falls back directly.
* ``corrupt-result`` — the window result is made *non-equivalent* (its
  first output is complemented) while keeping its size, so it passes the
  scheduler's structural guards and must be caught by the stage-level
  equivalence guard.
* ``bdd-limit`` — a forced :class:`repro.errors.BddLimitError` inside the
  worker, exercising the engines' bailout isolation path.

Window-level faults are **one-shot transient faults**: the scheduler
evaluates the plan in the parent before submission (so injected faults are
known and reported even when the worker dies) and a window retried after a
pool crash runs clean.  Stage-level corruption (``draw_stage``) flips a PO
of the stage result and therefore requires the equivalence guard
(``FlowConfig.verify_each_step=True``) to keep the final network correct —
chaos runs without the guard are intentionally allowed to produce wrong
answers, that is the point of the exercise.

``interrupt_after=K`` additionally raises :class:`ChaosInterrupt` right
after global stage *K* has committed its result to the stage memo — a
deterministic stand-in for ``kill -9`` used by the rerun-after-interrupt
CI check.  A plan whose only fault is the interrupt cannot change any
stage result (:attr:`FaultPlan.alters_results` is false), so it leaves
the stage memo on.

This is the repo's only fault injector.  Besides ``--chaos`` and
``scripts/chaos_soak.py``, the fuzz oracle (:mod:`repro.fuzz.oracle`)
runs under plans: seeded ones in its chaos rung, and, for its soundness
self-test, the plan whose keyword arguments
``OracleConfig.faults`` holds (a forced stage ``corrupt-result`` flips
PO 0 of that stage's result; a result without outputs draws no fault).
"""

from __future__ import annotations

import hashlib
import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Every injectable window-level fault kind, in draw order.
FAULT_KINDS = ("worker-crash", "window-timeout", "corrupt-result",
               "bdd-limit")


class ChaosInterrupt(ReproError):
    """Deterministic mid-flow interrupt (the fault plan's ``kill -9``)."""

    def __init__(self, stage_index: int):
        super().__init__(f"chaos interrupt after stage index {stage_index}")
        self.stage_index = stage_index


def in_worker_process() -> bool:
    """True when running inside a multiprocessing worker process."""
    return multiprocessing.current_process().name != "MainProcess"


def _unit(seed: int, site: str) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, site).

    Uses SHA-256 rather than ``hash()`` so draws are stable across
    processes and interpreter invocations (``PYTHONHASHSEED`` immune).
    """
    digest = hashlib.sha256(f"{seed}|{site}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """A seeded, deterministic schedule of faults keyed by site name.

    Parameters
    ----------
    seed:
        Drives every draw; two plans with the same seed and parameters
        inject identical faults.
    rate:
        Probability that any given *window* site receives a fault.
    kinds:
        The fault kinds drawn at window sites (uniformly among these).
    stage_corrupt_rate:
        Probability that a *stage* site has its result corrupted (PO 0
        complemented) after the stage runs; 0 by default.
    forced:
        Exact overrides, ``{site: kind}`` — used by tests and the soak
        script to place e.g. exactly one corrupt window.
    interrupt_after:
        Global stage index after which the flow raises
        :class:`ChaosInterrupt`; ``None`` disables.

    The plan records every fault it hands out in :attr:`injected`
    (``(site, kind)`` in draw order); the flow copies that log into the
    run report, so an injected fault is visible even when the worker it
    hit never reported back.  Plans are picklable, but draws are only
    ever made in the parent process.
    """

    def __init__(self, seed: int, rate: float = 0.05,
                 kinds: Sequence[str] = FAULT_KINDS,
                 stage_corrupt_rate: float = 0.0,
                 forced: Optional[Dict[str, str]] = None,
                 interrupt_after: Optional[int] = None) -> None:
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        for kind in (forced or {}).values():
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown forced fault kind {kind!r}")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.stage_corrupt_rate = stage_corrupt_rate
        self.forced = dict(forced or {})
        self.interrupt_after = interrupt_after
        self.injected: List[Tuple[str, str]] = []

    @property
    def alters_results(self) -> bool:
        """True when the plan can change what a stage computes: a window
        fault rate, a stage corruption rate, or forced sites.  Such runs
        must never read or write the stage memo."""
        return self.rate > 0 or self.stage_corrupt_rate > 0 \
            or bool(self.forced)

    # -- draws ---------------------------------------------------------------

    def draw(self, site: str) -> Optional[str]:
        """Fault kind for a window *site*, or ``None`` (recorded if any)."""
        kind = self.forced.get(site)
        if kind is None and self.kinds and _unit(self.seed, site) < self.rate:
            pick = _unit(self.seed, site + "#kind")
            kind = self.kinds[min(len(self.kinds) - 1,
                                  int(pick * len(self.kinds)))]
        if kind is not None:
            self.injected.append((site, kind))
        return kind

    def draw_stage(self, site: str) -> Optional[str]:
        """``corrupt-result`` for a stage *site*, or ``None`` (recorded)."""
        kind = self.forced.get(site)
        if kind is None and _unit(self.seed, site) < self.stage_corrupt_rate:
            kind = "corrupt-result"
        if kind is not None:
            self.injected.append((site, kind))
        return kind

    def should_interrupt(self, stage_index: int) -> bool:
        """True when the flow must raise :class:`ChaosInterrupt` here."""
        return self.interrupt_after is not None \
            and stage_index == self.interrupt_after

    # -- reporting -----------------------------------------------------------

    def injected_since(self, mark: int) -> List[Tuple[str, str]]:
        """Faults handed out after :attr:`injected` had *mark* entries."""
        return list(self.injected[mark:])

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, rate={self.rate}, "
                f"kinds={self.kinds}, forced={len(self.forced)}, "
                f"interrupt_after={self.interrupt_after})")


def corrupt_window_result(task, result):
    """Make a window result non-equivalent while keeping its size.

    Takes the worker's genuine result (or the window's original logic when
    the engine left it unchanged) and complements its first output — the
    scheduler's size guards still pass, splicing succeeds, and only a
    functional check can notice.  Returns a new
    :class:`~repro.parallel.window_io.WindowResult`.
    """
    from repro.parallel.window_io import CompactAig, WindowResult
    base = result.optimized if (result.changed and result.optimized
                                is not None) else task.compact
    outputs = list(base.outputs)
    outputs[0] ^= 1
    corrupted = CompactAig(num_pis=base.num_pis, gates=list(base.gates),
                           outputs=outputs, name=base.name)
    payload = dict(result.payload)
    payload["chaos"] = "corrupt-result"
    return WindowResult(index=result.index, changed=True,
                        optimized=corrupted, payload=payload,
                        wall_s=result.wall_s)
