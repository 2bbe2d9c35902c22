"""The differential oracle stack: everything we can check about one case.

Each fuzz case runs the full SBM flow and is then cross-examined by a
ladder of independent checks, in fixed order:

1. ``crash``   — the baseline flow run must complete (exception type and
   message are captured as the verdict otherwise); a wall-clock budget
   overrun is reported as a ``timeout`` verdict.
2. ``cec``     — SAT combinational equivalence of input vs. output (the
   ``StageGuard``/``assert_equivalent`` machinery via
   :func:`repro.sat.equivalence.find_counterexample`).  On a miscompare
   the guilty stage is identified by re-running the flow with
   ``verify_each_step=True`` and reading the first guard rollback.
3. ``jobs``    — the flow re-run with ``jobs=N`` (process-parallel
   windows) must produce the bit-identical network (the
   ``repro.parallel`` contract).
4. ``chaos``   — for each chaos seed, the flow under injected faults
   with the equivalence guard on must still complete and stay
   SAT-equivalent to the input (the ``repro.guard`` contract).

The **baseline CEC run is deliberately unguarded** (``verify_each_step``
off): the stage guard *rolls back* miscomparing stages, which would
silently repair the very bugs the fuzzer exists to find.  The guarded
re-run is used only post-failure, for stage blame.

Every rung but ``chaos`` runs ``sbm_flow`` under a fresh
:class:`~repro.guard.chaos.FaultPlan` built from
:attr:`OracleConfig.faults`, the one way to break the flow on purpose:
the soundness self-test forces a ``corrupt-result`` fault at a stage
site, and since the field travels in every bundle's ``oracle`` dict, a
replay rebuilds the same broken flow from the bundle alone.  The chaos
rung keeps its own seeded plans, under the guard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.aig.aig import Aig
from repro.guard.chaos import FaultPlan
from repro.parallel.window_io import CompactAig
from repro.sat.equivalence import find_counterexample
from repro.sbm.config import FlowConfig
from repro.sbm.flow import sbm_flow

#: Fixed check order; the first failing rung is the case's primary verdict.
CHECK_ORDER = ("crash", "timeout", "cec", "jobs", "chaos")

#: Stage-corruption rate of the chaos rung's plans (their window-fault
#: rate is ``FaultPlan``'s default, also 0.05).
CHAOS_STAGE_CORRUPT_RATE = 0.05


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """Which rungs run, and the flow shape they exercise."""

    iterations: int = 1
    checks: Tuple[str, ...] = ("cec", "jobs", "chaos")
    jobs: int = 2                     #: width of the ``jobs`` rung
    chaos_seeds: Tuple[int, ...] = (7,)
    enable_simresub: bool = True
    case_timeout_s: Optional[float] = None
    #: ``FaultPlan`` keyword arguments (plain JSON values) every rung but
    #: chaos runs under — a deliberately broken flow; ``None`` runs clean
    faults: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        unknown = [check for check in self.checks
                   if check not in CHECK_ORDER]
        if unknown:
            raise ValueError(f"unknown oracle check {unknown[0]!r} "
                             f"(expected names from {CHECK_ORDER})")
        self.fault_plan()  # bundles are outside input: reject bad plans now

    def fault_plan(self) -> Optional[FaultPlan]:
        """A fresh plan from :attr:`faults`, or ``None`` when unset.

        An unknown key or fault kind raises :class:`ValueError`.
        """
        if self.faults is None:
            return None
        try:
            return FaultPlan(**self.faults)
        except TypeError as exc:
            raise ValueError(f"bad oracle fault plan {self.faults!r}: "
                             f"{exc}") from None

    def to_dict(self) -> Dict[str, Any]:
        return {"iterations": self.iterations, "checks": list(self.checks),
                "jobs": self.jobs, "chaos_seeds": list(self.chaos_seeds),
                "enable_simresub": self.enable_simresub,
                "case_timeout_s": self.case_timeout_s,
                "faults": self.faults}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OracleConfig":
        """Read :meth:`to_dict` output: a missing key takes the field's
        default, an unknown one (an old bundle's) is ignored."""
        default = cls()
        return cls(iterations=int(data.get("iterations", default.iterations)),
                   checks=tuple(data.get("checks", default.checks)),
                   jobs=int(data.get("jobs", default.jobs)),
                   chaos_seeds=tuple(int(s) for s in
                                     data.get("chaos_seeds",
                                              default.chaos_seeds)),
                   enable_simresub=bool(data.get("enable_simresub",
                                                 default.enable_simresub)),
                   case_timeout_s=data.get("case_timeout_s",
                                           default.case_timeout_s),
                   faults=data.get("faults", default.faults))

    def flow_config(self, jobs: int = 1, chaos: Optional[FaultPlan] = None,
                    verify_each_step: bool = False,
                    pool: Any = None) -> FlowConfig:
        """A rung's flow: under *chaos* when given (the chaos rung), else
        under a fresh plan from :attr:`faults`."""
        return FlowConfig(iterations=self.iterations, jobs=jobs,
                          chaos=chaos if chaos is not None
                          else self.fault_plan(), pool=pool,
                          enable_simresub=self.enable_simresub,
                          verify_each_step=verify_each_step)


@dataclasses.dataclass
class OracleFailure:
    """One failed rung: the check that tripped and the evidence."""

    check: str                    #: rung name (``CHECK_ORDER`` member)
    kind: str                     #: exception type / divergence class
    detail: str = ""
    stage: Optional[str] = None   #: blamed flow stage, when identifiable
    cex: Optional[List[bool]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"check": self.check, "kind": self.kind, "detail": self.detail,
                "stage": self.stage,
                "cex": None if self.cex is None
                else [bool(b) for b in self.cex]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OracleFailure":
        cex = data.get("cex")
        return cls(check=str(data["check"]), kind=str(data["kind"]),
                   detail=str(data.get("detail", "")),
                   stage=data.get("stage"),
                   cex=None if cex is None else [bool(b) for b in cex])


@dataclasses.dataclass
class CaseResult:
    """Verdict of the full oracle stack on one case."""

    failures: List[OracleFailure] = dataclasses.field(default_factory=list)
    wall_s: float = 0.0
    flow_runtime_s: float = 0.0
    nodes_before: int = 0
    nodes_after: int = 0
    #: stage-coverage signature: which stages ran and whether they changed
    #: the network — the corpus keeps cases whose signature is novel
    signature: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def primary(self) -> Optional[OracleFailure]:
        """The first failure in ``CHECK_ORDER`` — the case's verdict."""
        for check in CHECK_ORDER:
            for failure in self.failures:
                if failure.check == check:
                    return failure
        return self.failures[0] if self.failures else None

    def to_dict(self) -> Dict[str, Any]:
        return {"ok": self.ok, "wall_s": self.wall_s,
                "flow_runtime_s": self.flow_runtime_s,
                "nodes_before": self.nodes_before,
                "nodes_after": self.nodes_after,
                "signature": self.signature,
                "failures": [f.to_dict() for f in self.failures]}


def network_key(aig: Aig) -> str:
    """Content hash of *aig*'s canonical CompactAig form.

    Delegates to the repo-wide :func:`repro.campaign.cache
    .network_fingerprint` helper — byte-identical to the historical local
    implementation, so every previously written bundle fingerprint stays
    valid.
    """
    from repro.campaign.cache import network_fingerprint
    return network_fingerprint(aig)


def _signature(stats: Any, failures: List[OracleFailure]) -> str:
    """Stage-coverage signature: stage names × did-the-size-move, plus any
    failure kinds.  Novelty of this string decides corpus admission."""
    parts: List[str] = []
    stages = []
    if stats is not None:
        stages = stats.to_dict().get("stages", [])
    previous: Optional[int] = None
    for record in stages:
        name = str(record.get("name", "?"))
        size = record.get("size")
        if previous is None or size == previous:
            mark = "="
        else:
            mark = "-" if size < previous else "+"
        previous = size if size is not None else previous
        parts.append(f"{name}{mark}")
    for failure in failures:
        parts.append(f"!{failure.check}:{failure.kind}")
    digest = hashlib.sha256("|".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def _blame_stage(source: Aig, config: OracleConfig) -> Optional[str]:
    """Name the stage whose result miscompared, via a guarded re-run.

    With ``verify_each_step=True`` the :class:`StageGuard` SAT-checks
    every stage and *rolls back* the guilty one — the first
    ``rolled_back`` guard event names it.  A clean guarded re-run means
    the corruption happened outside every stage: blamed as ``final``.
    """
    try:
        _result, stats = sbm_flow(source,
                                  config.flow_config(verify_each_step=True))
    except Exception:
        return None
    for event in stats.guard.events:
        if event.kind == "rolled_back":
            return event.stage
    return "final"


def run_case(aig: Aig, config: OracleConfig,
             pool: Any = None) -> CaseResult:
    """Run the oracle stack on *aig*; never raises for a flow failure.

    *pool* is an optional :class:`~repro.parallel.shared_pool
    .SharedProcessPool` the ``jobs`` rung reuses (one pool per fuzz run
    instead of one per case).
    """
    snapshot = CompactAig.from_aig(aig.cleanup())
    result = CaseResult(nodes_before=snapshot.num_ands)
    start = time.perf_counter()

    # -- rung 1: the baseline run must complete --------------------------------
    baseline: Optional[Aig] = None
    stats: Any = None
    try:
        baseline, stats = sbm_flow(snapshot.to_aig(), config.flow_config())
    except Exception as exc:
        result.failures.append(OracleFailure(
            check="crash", kind=type(exc).__name__, detail=str(exc)))
    flow_wall = time.perf_counter() - start
    if stats is not None:
        result.flow_runtime_s = float(getattr(stats, "runtime_s", 0.0))
    if config.case_timeout_s is not None and flow_wall > config.case_timeout_s:
        result.failures.append(OracleFailure(
            check="timeout", kind="CaseTimeout",
            detail=f"baseline flow took {flow_wall:.2f}s "
                   f"(budget {config.case_timeout_s:.2f}s)"))

    if baseline is not None:
        result.nodes_after = baseline.num_ands
        base_key = network_key(baseline)

        # -- rung 2: SAT CEC of input vs. output -------------------------------
        if "cec" in config.checks:
            cex = find_counterexample(snapshot.to_aig(), baseline)
            if cex is not None:
                result.failures.append(OracleFailure(
                    check="cec", kind="EquivalenceError",
                    detail=f"PO {cex.po_name or cex.po_index} differs",
                    stage=_blame_stage(snapshot.to_aig(), config),
                    cex=list(cex.inputs)))

        # -- rung 3: jobs=N vs jobs=1 bit-identity -----------------------------
        if "jobs" in config.checks and config.jobs > 1:
            try:
                wide, _ = sbm_flow(snapshot.to_aig(),
                                   config.flow_config(jobs=config.jobs,
                                                      pool=pool))
                if network_key(wide) != base_key:
                    result.failures.append(OracleFailure(
                        check="jobs", kind="JobsDivergence",
                        detail=f"jobs={config.jobs} network differs from "
                               f"jobs=1 network"))
            except Exception as exc:
                result.failures.append(OracleFailure(
                    check="jobs", kind=type(exc).__name__,
                    detail=f"jobs={config.jobs} re-run raised: {exc}"))

        # -- rung 4: chaos sweeps must survive and stay equivalent -------------
        if "chaos" in config.checks:
            for seed in config.chaos_seeds:
                plan = FaultPlan(seed=seed,
                                 stage_corrupt_rate=CHAOS_STAGE_CORRUPT_RATE)
                try:
                    shaken, _ = sbm_flow(
                        snapshot.to_aig(),
                        config.flow_config(chaos=plan,
                                           verify_each_step=True))
                except Exception as exc:
                    result.failures.append(OracleFailure(
                        check="chaos", kind=type(exc).__name__,
                        detail=f"chaos seed {seed} raised: {exc}"))
                    continue
                cex = find_counterexample(snapshot.to_aig(), shaken)
                if cex is not None:
                    result.failures.append(OracleFailure(
                        check="chaos", kind="EquivalenceError",
                        detail=f"chaos seed {seed}: guarded flow produced a "
                               f"non-equivalent network "
                               f"(PO {cex.po_name or cex.po_index})",
                        cex=list(cex.inputs)))

    result.signature = _signature(stats, result.failures)
    result.wall_s = time.perf_counter() - start
    return result
