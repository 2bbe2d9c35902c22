"""Configuration dataclasses for the SBM engines.

Default values follow the paper's empirical settings:

* Boolean difference: BDD size filter 10 (Section III-C), xor_cost 3 (the
  AIG node count of a two-input XOR; "according to the specific technology
  involved ... the xor_cost can have a different value"), partition levels
  between 5 and 30 with ≤1000 nodes (Section III-B).
* Gradient engine: cost budget 100, k = 20, minimum gain gradient 3%
  (Section IV-A).
* Heterogeneous eliminate thresholds (-1, 2, 5, 20, 50, 100, 200, 300)
  (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.partition.partitioner import PartitionConfig

if TYPE_CHECKING:
    from repro.guard.chaos import FaultPlan
    from repro.parallel.shared_pool import SharedProcessPool


@dataclass
class BooleanDifferenceConfig:
    """Knobs of the Boolean-difference resubstitution engine (Section III)."""

    xor_cost: int = 3
    bdd_size_limit: int = 10
    bdd_node_limit: int = 200_000
    max_pairs_per_node: int = 40
    max_pairs_per_partition: int = 5_000
    min_shared_support: int = 1
    max_inclusion: float = 0.999
    accept_zero_gain: bool = True
    #: Reorder partition BDDs by sifting before pairing.  The paper keeps
    #: this OFF ("we did not perform any BDD variables ordering ... saves
    #: runtime, but requires a higher amount of memory", Section III-C);
    #: ON trades runtime for memory — measured by the ablation bench.
    reorder: bool = False
    partition: PartitionConfig = field(default_factory=lambda: PartitionConfig(
        max_levels=20, max_size=400, max_leaves=24))


@dataclass
class MspfConfig:
    """Knobs of the BDD-based MSPF engine (Section IV-C)."""

    #: The paper's BDD "maximum memory limit": nodes one window's manager
    #: may hold (the window's BDDs, each judged node's fanout cone with
    #: the node free, cofactors, MSPF terms and care sets; connectability
    #: tests allocate none).  A node that hits it is skipped as a bailout.
    bdd_node_limit: int = 300_000
    max_connectable_fanins: int = 8
    partition: PartitionConfig = field(default_factory=lambda: PartitionConfig(
        max_levels=24, max_size=500, max_leaves=28))


@dataclass
class KernelConfig:
    """Knobs of the heterogeneous elimination/kerneling engine (Section IV-B)."""

    eliminate_thresholds: Tuple[int, ...] = (-1, 2, 5, 20, 50, 100, 200, 300)
    max_cubes: int = 256
    kernel_rounds: int = 20
    partition: PartitionConfig = field(default_factory=lambda: PartitionConfig(
        max_levels=12, max_size=200, max_leaves=40))


@dataclass
class SimresubConfig:
    """Knobs of the simulation-guided resubstitution engine.

    The fifth engine (Simulation-Guided Boolean Resubstitution, Lee et
    al., arXiv:2007.02579) carries no BDD limits: candidates are filtered
    by simulation signatures and validated by budgeted SAT proofs, so its
    knobs are the pattern width, the divisor/pair search bounds, and the
    per-proof conflict budget — exactly the degradation-ladder handles.
    """

    #: 64-bit words of seeded random patterns (4 → 256 patterns).
    pattern_words: int = 4
    #: Hard cap on pattern growth from counterexamples.
    max_patterns: int = 1024
    #: Nearest topological predecessors considered as divisors per node.
    max_divisors: int = 48
    #: Divisor-pair signature checks per node (two-divisor candidates).
    max_pair_checks: int = 300
    #: SAT conflicts allowed per candidate proof; over budget = skip.
    sat_conflict_budget: int = 3000
    #: Seed of the random pattern prefix (semantic: part of the cache key).
    seed: int = 0x51328E5
    partition: PartitionConfig = field(default_factory=lambda: PartitionConfig(
        max_levels=24, max_size=500, max_leaves=30))


@dataclass
class GradientConfig:
    """Knobs of the gradient-based AIG engine (Section IV-A)."""

    cost_budget: int = 100
    window_k: int = 20
    min_gain_gradient: float = 0.03
    budget_extension: int = 50
    partition: Optional[PartitionConfig] = None  # None = whole network


@dataclass
class OrchestrateConfig:
    """Knobs of the DAG-aware pass-ordering search (``repro.orchestrate``).

    The search replaces the fixed stage waterfall with rounds of K
    candidate stage sequences (vital stages pinned), evaluated through the
    content-addressed stage memo and scored by node count.  Every knob
    here except :attr:`threads` is **semantic** — part of the campaign
    cache key — because it changes which ordering wins and therefore the
    result network.  :attr:`threads` only changes where candidates are
    evaluated, never what they compute (candidates are pure functions of
    (input network, sequence, config)), so it is excluded like
    ``FlowConfig.jobs``.
    """

    #: Candidate stage sequences proposed per round.
    k: int = 4
    #: Search rounds; each round seeds the next with its winner.
    rounds: int = 2
    #: Seed of the bandit prior's RNG — the only randomness source, so
    #: candidate generation is bit-for-bit reproducible.
    seed: int = 0xD46A11
    #: Exploration probability of the bandit's next-stage draw.
    explore: float = 0.25
    #: Minimum movable stages kept when a candidate drops stages.
    min_stages: int = 3
    #: Concurrent candidate evaluations (execution-side; ``None`` = derive
    #: from ``k`` and the worker pool).
    threads: Optional[int] = None


@dataclass
class FlowConfig:
    """The full Boolean resynthesis script of Section V-A."""

    iterations: int = 2
    #: Worker processes for the partition-based engines (hetero-kernel,
    #: MSPF, simresub, Boolean difference).  ``1`` (default) executes every
    #: partition inline in partition order — the exact serial path, no
    #: process machinery; any other value makes :func:`~repro.sbm.flow
    #: .sbm_flow` own a :attr:`pool` of that width for the run unless one
    #: is given (``0``/``None`` means ``os.cpu_count()``).  The result is
    #: identical for every value: partitions are snapshot up front, workers
    #: are pure functions, and results merge in deterministic partition
    #: order (see :mod:`repro.parallel`).
    jobs: int = 1
    #: Per-window wall-clock budget (seconds) for windows that run on a
    #: pool; an overrunning window falls back to its original logic and
    #: keeps its worker busy until it finishes.  ``None`` disables the
    #: timeout, which keeps parallel runs deterministic.  **Ignored without
    #: a pool** (``jobs=1`` and no :attr:`pool`): the inline path executes
    #: windows in the flow's own process and cannot preempt them, so the
    #: flow emits a one-time warning when this is set without a pool.
    #: Serial runs are bounded by the guard layer's *stage* budget instead
    #: (:attr:`flow_timeout_s` and the ``repro.guard`` degradation ladder).
    window_timeout_s: Optional[float] = None
    #: Flow-level wall-clock budget (seconds; CLI ``--timeout``).  The
    #: :class:`repro.guard.budget.DeadlineManager` splits it across the
    #: remaining stages: a stage is run at reduced effort when the run
    #: falls behind schedule, and skipped once the budget is exhausted —
    #: the flow degrades instead of hanging or dying.  ``None`` (default)
    #: disables all time discipline.
    flow_timeout_s: Optional[float] = None
    #: Optional :class:`repro.guard.chaos.FaultPlan` (CLI ``--chaos SEED``)
    #: injecting deterministic faults into the partition scheduler and the
    #: stage runner.  Corrupt-result faults need
    #: :attr:`verify_each_step` to keep the final network correct.
    chaos: Optional["FaultPlan"] = None
    #: Optional :class:`repro.parallel.shared_pool.SharedProcessPool` every
    #: stage's windows run on, set by the run's one pool owner: a campaign
    #: or fuzz run passes its pool to each of its flows, and
    #: :func:`~repro.sbm.flow.sbm_flow` creates one for a ``jobs != 1``
    #: flow given none.  Execution-side only — it changes where windows
    #: run, never what they compute, so it is excluded from the campaign
    #: cache key (like :attr:`jobs`).
    pool: Optional["SharedProcessPool"] = None
    #: Optional level discipline (Section V-A: "we enforced a tight control
    #: on the number of levels ... as this is known to correlate with delay
    #: and congestion later on in the flow").  When set, a stage whose
    #: result exceeds ``initial_depth × max_depth_growth`` even after
    #: rebalancing is rolled back.
    max_depth_growth: Optional[float] = None
    boolean_difference: BooleanDifferenceConfig = field(
        default_factory=BooleanDifferenceConfig)
    mspf: MspfConfig = field(default_factory=MspfConfig)
    simresub: SimresubConfig = field(default_factory=SimresubConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    gradient: GradientConfig = field(default_factory=GradientConfig)
    #: Simulation-guided resubstitution (the fifth engine): signature
    #: filtering + budgeted SAT, no BDDs — the scalable path on the large
    #: arithmetic benchmarks where the BDD-filtered engines bail out.
    enable_simresub: bool = True
    enable_sat_sweep: bool = True
    enable_redundancy_removal: bool = False  # expensive; on for final effort
    #: Verify every stage with the :class:`repro.guard.stage_guard
    #: .StageGuard` — one ``find_counterexample`` call (complete simulation
    #: up to 12 inputs; above, 256 random patterns, then the SAT sweep) —
    #: and roll a miscomparing stage back to the last verified network
    #: instead of aborting.  Historically this was an end-of-iteration
    #: ``assert_equivalent`` that raised on failure.
    verify_each_step: bool = False
    #: Optional :class:`OrchestrateConfig`: replace the fixed waterfall
    #: with the DAG-aware pass-ordering search (``repro.orchestrate``).
    #: ``None`` (default) keeps the flow bit-identical to the classic
    #: stage table.  Semantic — part of the campaign cache key.
    orchestrate: Optional[OrchestrateConfig] = None
