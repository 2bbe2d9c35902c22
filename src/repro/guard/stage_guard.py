"""Per-stage equivalence guard with rollback (``repro.guard.stage_guard``).

Replaces the flow's old all-or-nothing ``verify_each_step`` assert with one
check after every stage: a :func:`repro.sat.equivalence.find_counterexample`
call against the last *verified* network, the one simulate-then-prove
core of :mod:`repro.sat`, after Simulation-Guided Boolean Resubstitution
(Lee et al.): networks of up to 12 inputs are compared by complete
simulation; wider ones meet 256 seeded random patterns, then a SAT sweep
that merges the miter of the two networks bottom-up with small
conflict-limited proofs, and one SAT call on the PO pairs the merges leave
apart.

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

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.aig.aig import Aig
from repro.sat.equivalence import Counterexample, find_counterexample


class StageGuard:
    """Equivalence check against the last verified network.

    *reference* is the initial verified network — a standalone copy the
    guard owns; the caller must not edit it afterwards.
    """

    def __init__(self, reference: Aig) -> None:
        self.reference = reference

    def check(self, candidate: Aig) -> Optional[Counterexample]:
        """A counterexample against the reference means "roll back"."""
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
