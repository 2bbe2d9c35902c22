"""Per-stage equivalence guard with rollback (``repro.guard.stage_guard``).

Replaces the flow's old all-or-nothing ``verify_each_step`` assert with a
two-rung ladder run after every stage, following Simulation-Guided Boolean
Resubstitution (Lee et al.): random simulation is a cheap first-line
correctness signal, SAT the expensive proof behind it.

1. **Fast check** — 256 deterministic random input patterns (four 64-bit
   simulation words per PI) compared PO-by-PO against the last *verified*
   network; a miscompare yields the exact failing pattern immediately.
2. **SAT CEC** — only when the fast check passes, a full miter proof
   (:func:`repro.sat.equivalence.find_counterexample`, which itself
   front-loads random refutation).

A miscompare does not abort the run: the flow rolls the network back to
the guard's reference (the last verified snapshot), the counterexample —
input pattern plus first miscomparing PO — is attached to the run report,
and the flow continues with the next stage.  Verification is chained: the
reference advances after each verified stage, so transitively the final
network is equivalent to the original input.

:class:`GuardReport` collects everything the hardened execution layer did
— degradations, skips, rollbacks, stage results committed to and replayed
from the stage memo, injected faults — and is what ``repro.obs`` report
schema v2 embeds under the ``guard`` key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import hotpath
from repro.aig.aig import Aig
from repro.aig.simprogram import pack_rounds, sim_program, wide_mask
from repro.aig.simulate import WORD_MASK, po_words, simulate_words
from repro.sat.equivalence import Counterexample, find_counterexample

#: Default number of random patterns for the fast rung (multiple of 64).
DEFAULT_PATTERNS = 256


class StageGuard:
    """Equivalence ladder against the last verified network.

    Parameters
    ----------
    reference:
        The initial verified network — a standalone copy the guard owns;
        it must not be edited by the caller afterwards.
    patterns:
        Random patterns for the fast rung (rounded up to words of 64).
    seed:
        Seed of the fast rung's pattern generator; fixed so guard
        verdicts are reproducible run-to-run.
    """

    def __init__(self, reference: Aig, patterns: int = DEFAULT_PATTERNS,
                 seed: int = 0x5BAD) -> None:
        self.reference = reference
        self.patterns = max(64, patterns)
        self.seed = seed
        self.fast_checks = 0
        self.fast_rejects = 0
        self.sat_checks = 0

    def fast_check(self, candidate: Aig) -> Optional[Counterexample]:
        """Random-simulation miscompare check; None when all patterns agree."""
        self.fast_checks += 1
        rng = random.Random(self.seed)
        rounds = (self.patterns + 63) // 64
        if hotpath.enabled():
            # Wide hot path: all rounds in one pass per network.  Patterns
            # are drawn round-major (the reference RNG sequence) and the
            # scan below follows the reference loop's (round, po, bit)
            # order, so any counterexample is bit-identical.
            num_pis = self.reference.num_pis
            round_words = [[rng.getrandbits(64) for _ in range(num_pis)]
                           for _ in range(rounds)]
            packed = pack_rounds(round_words)
            mask = wide_mask(rounds)
            prog_a = sim_program(self.reference)
            prog_b = sim_program(candidate)
            wa = prog_a.po_words(prog_a.run(packed, mask), mask)
            wb = prog_b.po_words(prog_b.run(packed, mask), mask)
            for r in range(rounds):
                shift = 64 * r
                for po, (x, y) in enumerate(zip(wa, wb)):
                    diff = ((x >> shift) ^ (y >> shift)) & WORD_MASK
                    if diff:
                        bit = (diff & -diff).bit_length() - 1
                        inputs = [bool((w >> bit) & 1)
                                  for w in round_words[r]]
                        self.fast_rejects += 1
                        return Counterexample(inputs, po,
                                              self.reference.po_name(po))
            return None
        for _ in range(rounds):
            words = [rng.getrandbits(64)
                     for _ in range(self.reference.num_pis)]
            wa = po_words(self.reference,
                          simulate_words(self.reference, words))
            wb = po_words(candidate, simulate_words(candidate, words))
            for po, (x, y) in enumerate(zip(wa, wb)):
                diff = x ^ y
                if diff:
                    bit = (diff & -diff).bit_length() - 1
                    inputs = [bool((w >> bit) & 1) for w in words]
                    self.fast_rejects += 1
                    return Counterexample(inputs, po,
                                          self.reference.po_name(po))
        return None

    def check(self, candidate: Aig) -> Optional[Counterexample]:
        """Run the full ladder; a counterexample means "roll back"."""
        cex = self.fast_check(candidate)
        if cex is not None:
            return cex
        self.sat_checks += 1
        return find_counterexample(self.reference, candidate)

    def commit(self, verified: Aig) -> None:
        """Advance the reference to a fresh snapshot of *verified*."""
        self.reference = verified.cleanup()

    def rollback_copy(self) -> Aig:
        """A fresh editable copy of the last verified network."""
        return self.reference.cleanup()

    def verify(self, candidate: Aig) -> Tuple[Aig, Optional[Counterexample]]:
        """Check *candidate* and commit it, or roll back: returns the
        network to continue with and the counterexample, if any."""
        cex = self.check(candidate)
        if cex is None:
            self.commit(candidate)
            return candidate, None
        return self.rollback_copy(), cex


@dataclass
class GuardEvent:
    """One thing the hardened execution layer did."""

    kind: str            #: degraded | skipped | rolled_back | checkpoint |
                         #: replayed | interrupted
    stage: str           #: flow stage name ("" for flow-level events)
    iteration: int = 0
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "stage": self.stage,
                "iteration": self.iteration, "detail": dict(self.detail)}


@dataclass
class GuardReport:
    """Everything ``repro.guard`` did during one flow run."""

    budget_s: Optional[float] = None
    chaos_seed: Optional[int] = None
    events: List[GuardEvent] = field(default_factory=list)
    #: injected faults, ``(site, kind)`` in draw order
    faults: List[Any] = field(default_factory=list)

    def add(self, kind: str, stage: str, iteration: int = 0,
            **detail: Any) -> GuardEvent:
        """Append and return a new event."""
        event = GuardEvent(kind=kind, stage=stage, iteration=iteration,
                           detail=detail)
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        """Number of recorded events of *kind*."""
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def rollbacks(self) -> int:
        """Stages rolled back by the equivalence guard."""
        return self.count("rolled_back")

    @property
    def degradations(self) -> int:
        """Stages run at reduced effort."""
        return self.count("degraded")

    @property
    def skips(self) -> int:
        """Stages skipped outright by the deadline manager."""
        return self.count("skipped")

    @property
    def checkpoints(self) -> int:
        """Stage results this flow committed to the stage memo."""
        return self.count("checkpoint")

    @property
    def replayed(self) -> int:
        """Stage results this flow replayed from the stage memo."""
        return self.count("replayed")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (report schema v2, ``guard`` entries)."""
        return {
            "budget_s": self.budget_s,
            "chaos_seed": self.chaos_seed,
            "replayed": self.replayed,
            "rollbacks": self.rollbacks,
            "degradations": self.degradations,
            "skips": self.skips,
            "checkpoints": self.checkpoints,
            "faults": [{"site": site, "kind": kind}
                       for site, kind in self.faults],
            "events": [e.to_dict() for e in self.events],
        }
