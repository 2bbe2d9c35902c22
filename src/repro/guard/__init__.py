"""Hardened flow execution: budgets, equivalence guard, chaos.

The paper's whole pitch is *bounded* Boolean methods — BDD size caps, MSPF
memory bailouts, partition windows.  ``repro.guard`` extends that
philosophy from the engines to the orchestrator, so a production run
degrades gracefully, never corrupts, and always resumes:

* :mod:`repro.guard.budget` — :class:`DeadlineManager` gives every stage a
  share of a flow-level wall-clock budget and a degradation ladder
  (full → reduced → skip) instead of a hang or a hard kill,
* :mod:`repro.guard.stage_guard` — :class:`StageGuard` verifies every
  stage with one call to the CEC core,
  :func:`repro.sat.equivalence.find_counterexample`, and rolls back to the
  last verified network on miscompare,
* :mod:`repro.guard.chaos` — :class:`FaultPlan`, a seeded deterministic
  fault-injection harness (worker crashes, window timeouts, corrupt
  results, forced BDD bailouts, a mid-flow interrupt) threaded through
  the partition scheduler and the stage executor.  It is the only fault
  injector: the fuzz oracle's chaos rung and its soundness self-test
  (``repro.fuzz.oracle.OracleConfig.faults``) build plans too.

Every stage of every flow runs through one executor,
:func:`repro.sbm.flow.run_stage`, which applies all three and consults
the stage memo (:class:`repro.campaign.cache.StageMemo`).  The memo is
also how a ``kill -9``'d run resumes: rerun it against the same cache
directory and every committed stage replays instead of recomputing.
``FlowConfig`` drives the guard (``flow_timeout_s``, ``verify_each_step``,
``chaos``); what happened lands in ``FlowStats.guard``, a
:class:`~repro.guard.stage_guard.GuardReport` whose stage events come
from one recorder, :meth:`repro.sbm.flow.FlowStats.record_stage`, and
which the ``repro.obs`` run report embeds (schema v2, ``guard`` key).
"""

from repro.guard.budget import (
    FULL,
    REDUCED,
    SKIP,
    DeadlineManager,
    StagePlan,
)
from repro.guard.chaos import (
    FAULT_KINDS,
    ChaosInterrupt,
    FaultPlan,
    corrupt_window_result,
    in_worker_process,
)
from repro.guard.stage_guard import GuardEvent, GuardReport, StageGuard

__all__ = [
    "ChaosInterrupt",
    "DeadlineManager",
    "FAULT_KINDS",
    "FULL",
    "FaultPlan",
    "GuardEvent",
    "GuardReport",
    "REDUCED",
    "SKIP",
    "StageGuard",
    "StagePlan",
    "corrupt_window_result",
    "in_worker_process",
]
