"""Correction of timings for the measuring machine's drifting speed.

On a shared host the core itself runs slower or faster from one second to
the next: a fixed pure-Python loop took 0.26-0.41 s between samples a few
seconds apart, and one router flow 1.2-2.4 s, with CPU time equal to wall
time throughout.  No scheduling or repetition inside the benchmark removes
that, so every timed phase is corrected for the speed measured while it
ran.

A :class:`Speedometer` runs a fixed reference loop, which shares no code
with ``repro``, from a ``SIGALRM`` handler every ``PERIOD_S`` while it is
on.  A phase's corrected time is its wall time minus the time spent in the
handler, scaled by ``REF_UNIT_S`` over the reference loop's time during the
phase.  The loop's time is its thread's CPU time: while the main thread
waits for pool workers, a sample may share its vCPU with one of them, and
the wall time would count that as a slower machine.  A program change
moves the corrected time by the same factor as the wall time; a change of
the machine's speed moves the wall time, and the corrected time only as far
as the program and the loop slow down by different factors (README.md,
"Speed correction").
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

clock = time.perf_counter

#: Seconds between two samples of the reference loop.
PERIOD_S = 0.1
#: The reference unit's time at the reference speed.  It fixes the scale of
#: corrected times: about the unit's time on a 2-vCPU Xeon host at its
#: usual speed, so corrected seconds read close to wall seconds there.
REF_UNIT_S = 0.004

_MASK = (1 << 64) - 1


def reference_unit(nodes: int = 2000, seed: int = 12345) -> int:
    """One unit of fixed work: structural hashing and 64-bit bit-parallel
    simulation of a pseudo-random AIG, in plain Python.  Keys and values
    are integers, so the loop creates no objects the garbage collector
    tracks beyond one dict and two lists."""
    state = seed
    strash = {}
    fanin0: List[int] = []
    fanin1: List[int] = []
    num_pis = 32
    lits = list(range(2, 2 * num_pis + 2, 2))
    for _ in range(nodes):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        a = lits[state % len(lits)] ^ (state >> 16 & 1)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        b = lits[state % len(lits)] ^ (state >> 16 & 1)
        if a > b:
            a, b = b, a
        key = a << 32 | b
        lit = strash.get(key)
        if lit is None:
            lit = 2 * (num_pis + 1 + len(fanin0))
            strash[key] = lit
            fanin0.append(a)
            fanin1.append(b)
        lits.append(lit)
    values = [0] + [0x9E3779B97F4A7C15 * (i + 1) & _MASK
                    for i in range(num_pis)]
    for a, b in zip(fanin0, fanin1):
        x = values[a >> 1] ^ (_MASK if a & 1 else 0)
        y = values[b >> 1] ^ (_MASK if b & 1 else 0)
        values.append(x & y)
    return sum(values) & _MASK


class Speedometer:
    """Samples the reference loop every ``PERIOD_S`` of wall time.

    Only the main thread may start or stop it.  The handler runs between
    two bytecodes of the main thread, or when a blocking wait of the main
    thread is interrupted, so a sample never splits one ``clock()`` read.
    """

    def __init__(self) -> None:
        #: (start, wall seconds, CPU seconds) of every sample; start is a
        #: ``clock()`` time
        self.samples: List[Tuple[float, float, float]] = []
        self._on = self._busy = False

    def start(self) -> None:
        self._on = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()

    def stop(self) -> None:
        # The handler stays installed: a signal raised just before the
        # timer stopped may still be delivered, and must not kill the
        # process (the default action of SIGALRM).
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._on = False
        self.sample()

    def _tick(self, _signum, _frame) -> None:
        if self._on and not self._busy:
            self.sample()

    def sample(self) -> None:
        self._busy = True
        try:
            t0, cpu0 = clock(), time.thread_time()
            reference_unit()
            self.samples.append((t0, clock() - t0, time.thread_time() - cpu0))
        finally:
            self._busy = False

    def corrected(self, start: float, end: float) -> float:
        """The corrected duration of ``[start, end]`` (``clock()`` times).

        The speed is the mean over the samples taken inside the interval,
        or, for an interval shorter than the sampling period, the nearest
        sample on each side.
        """
        handler = 0.0
        factors = []
        before = after = None
        for t, wall, cpu in self.samples:
            if t + wall <= start:
                before = cpu
            elif t >= end:
                if after is None:
                    after = cpu
            else:
                handler += wall
                factors.append(REF_UNIT_S / cpu)
        if len(factors) < 2:
            factors += [REF_UNIT_S / d for d in (before, after) if d]
        if not factors:
            raise RuntimeError("no speed sample near the interval")
        return (end - start - handler) * statistics.fmean(factors)
