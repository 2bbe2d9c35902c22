"""Gradient-based AIG optimization (Section IV-A).

The engine makes AIG optimization *adaptive* (it learns which moves succeed
on the current design and prioritizes them) and *diverse* (different move
types compete locally on each partition).  The mechanics follow the paper:

* best-result selection runs in a **waterfall**: per partition, moves are
  tried in priority order and the first successful one is kept ("the first
  successful move is picked, and all other moves are not tried ... a good
  tradeoff between runtime and QoR");
* the engine starts with **unit-cost moves** only; when the cheap moves hit
  a local minimum (gain = 0), **higher-cost moves are introduced**;
* move **success history** re-prioritizes the waterfall ("the most
  successful moves and their sequence are recorded ... to allow moves with
  high success likelihood ... to be tried with higher priority");
* a **cost budget** limits the total move cost (default 100); it is
  automatically extended while the **gain gradient** over the last ``k``
  iterations exceeds the threshold (defaults: k = 20, 3%), and the run
  terminates early when the gradient reaches 0 over the last ``k``.

A move that failed on a window is not run there again while the live
network is unchanged: each run keeps the ``(move, window nodes)`` pairs
that failed, valid for one *live key* (the PO literals and the fanins of
every live AND).  Such a move is still charged its cost and counted as
tried, so the budget, the history and the early termination see exactly
what they would if it ran; it is counted in ``moves_skipped``.  This
relies on every move being a deterministic function of the network and
the window (see :class:`repro.sbm.moves.Move`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.aig.aig import Aig, lit_node
from repro.partition.partitioner import PartitionConfig, Window, partition_network
from repro.sbm.config import GradientConfig
from repro.sbm.moves import DEFAULT_MOVES, Move


@dataclass
class GradientStats:
    """Counters and history reported by a gradient-engine run."""

    moves_tried: int = 0
    moves_succeeded: int = 0
    #: Tried moves not run, because they failed before on the same window
    #: of the same live network; they are counted in ``moves_tried`` too.
    moves_skipped: int = 0
    cost_spent: int = 0
    budget_extensions: int = 0
    total_gain: int = 0
    gain_history: List[int] = field(default_factory=list)
    move_success: Dict[str, int] = field(default_factory=dict)
    move_attempts: Dict[str, int] = field(default_factory=dict)
    terminated_early: bool = False

    def success_rate(self, name: str) -> float:
        """Observed success likelihood of a move on this design."""
        attempts = self.move_attempts.get(name, 0)
        if attempts == 0:
            return 0.5  # optimistic prior for untried moves
        return self.move_success.get(name, 0) / attempts


def gradient_optimize(aig: Aig, config: Optional[GradientConfig] = None,
                      moves: Optional[List[Move]] = None,
                      selection: str = "waterfall") -> GradientStats:
    """Run the gradient-based engine in place; returns its statistics.

    ``selection`` is ``"waterfall"`` (default; first successful move wins)
    or ``"parallel"`` (every admissible move is evaluated on a scratch copy
    and only the best is applied — better QoR, much slower; provided for the
    ablation experiment).
    """
    config = config or GradientConfig()
    moves = list(moves) if moves is not None else list(DEFAULT_MOVES)
    stats = GradientStats()
    budget = config.cost_budget
    max_unlocked_cost = 1  # start with unit-cost moves
    size_at_start = max(1, aig.num_ands)
    failed = _FailedMoves()

    with obs.span("gradient_engine", kind="engine", selection=selection,
                  nodes_before=aig.num_ands) as engine_span:
        while stats.cost_spent < budget:
            partitions = _partitions(aig, config)
            if not partitions:
                break
            sweep_gain = 0
            with obs.span("sweep", kind="sweep", windows=len(partitions),
                          unlocked_cost=max_unlocked_cost) as sweep_span:
                for window in partitions:
                    if stats.cost_spent >= budget:
                        break
                    admissible = [m for m in moves
                                  if m.cost <= max_unlocked_cost]
                    # Adaptive priority: cheap first, then observed success
                    # rate.
                    admissible.sort(
                        key=lambda m: (m.cost, -stats.success_rate(m.name)))
                    if selection == "waterfall":
                        gain = _waterfall(aig, window, admissible, stats,
                                          failed)
                    else:
                        gain = _parallel(aig, window, admissible, stats)
                    sweep_gain += gain
                    stats.gain_history.append(gain)
                    # Gradient bookkeeping over the last k move applications.
                    k = config.window_k
                    if len(stats.gain_history) >= k:
                        recent = sum(stats.gain_history[-k:])
                        gradient = recent / size_at_start
                        if gradient == 0:
                            stats.terminated_early = True
                            break
                        if (gradient > config.min_gain_gradient
                                and stats.cost_spent > budget - 10):
                            budget += config.budget_extension
                            stats.budget_extensions += 1
                            obs.metrics().inc("gradient.budget_extensions")
                sweep_span.set("gain", sweep_gain)
                sweep_span.set("cost_spent", stats.cost_spent)
            if stats.terminated_early:
                break
            if sweep_gain == 0:
                if max_unlocked_cost >= max(m.cost for m in moves):
                    break  # full local minimum
                # Local minimum with the current move set: unlock costlier
                # moves.
                max_unlocked_cost = min(m.cost for m in moves
                                        if m.cost > max_unlocked_cost)
                obs.metrics().inc("gradient.cost_unlocks")
        stats.total_gain = size_at_start - aig.num_ands
        _publish_gradient(engine_span, stats, aig, size_at_start, budget)
        if stats.terminated_early:
            obs.metrics().inc("gradient.early_terminations")
    return stats


def _publish_gradient(engine_span, stats: GradientStats, aig: Aig,
                      size_at_start: int, budget: int) -> None:
    """Engine-run summary: span attributes + registry counters."""
    engine_span.set("nodes_after", aig.num_ands)
    engine_span.set("cost_spent", stats.cost_spent)
    engine_span.set("total_gain", size_at_start - aig.num_ands)
    engine_span.set("moves_skipped", stats.moves_skipped)
    registry = obs.metrics()
    registry.inc("gradient.cost_spent", stats.cost_spent)
    registry.set_gauge("gradient.final_budget", budget)


def _live_key(aig: Aig) -> tuple:
    """The PO literals and ``(node, fanin0, fanin1)`` of every live AND.

    A failed move builds tentative nodes and collects them again: that
    advances ``aig.generation`` but leaves this key as it was.
    """
    return (tuple(aig.pos()),
            tuple([(n, *aig.fanins(n)) for n in aig.ands()]))


class _FailedMoves:
    """The ``(move name, window nodes)`` pairs that failed on one live
    network; local to one engine run."""

    def __init__(self) -> None:
        self._generation: Optional[int] = None  # when _key was last read
        self._key: Optional[tuple] = None
        self._pairs: Set[Tuple[str, Tuple[int, ...]]] = set()

    def _sync(self, aig: Aig) -> bool:
        """Forget every pair if the live network changed; True if not."""
        if aig.generation == self._generation:
            return True  # no edit at all since the key was read
        self._generation = aig.generation
        key = _live_key(aig)
        if key == self._key:
            return True
        self._key = key
        self._pairs = set()
        return False

    def known(self, aig: Aig, pair: Tuple[str, Tuple[int, ...]]) -> bool:
        """Whether *pair* already failed on the network as it is now."""
        self._sync(aig)
        return pair in self._pairs

    def record(self, aig: Aig, pair: Tuple[str, Tuple[int, ...]]) -> None:
        """Note that *pair* just failed, unless the move changed the live
        network anyway (a zero-gain restructure)."""
        if self._sync(aig):
            self._pairs.add(pair)


def _waterfall(aig: Aig, window: Window, admissible: List[Move],
               stats: GradientStats, failed: _FailedMoves) -> int:
    """Try moves in order; keep the first that improves the partition.

    A move already known to fail on this window of this live network is
    charged as if it ran, but not run.
    """
    registry = obs.metrics()
    nodes = tuple(window.nodes)
    # Not kind "window": the progress bus publishes those, one event each,
    # and this engine opens one per window it tries moves on.
    with obs.span("window", kind="gradient_window",
                  size=len(window.nodes)) as window_span:
        for move in admissible:
            if all(aig.is_dead(n) for n in window.nodes):
                return 0
            stats.moves_tried += 1
            stats.cost_spent += move.cost
            stats.move_attempts[move.name] = (
                stats.move_attempts.get(move.name, 0) + 1)
            registry.inc("gradient.moves_tried", move=move.name)
            pair = (move.name, nodes)
            if failed.known(aig, pair):
                stats.moves_skipped += 1
                registry.inc("gradient.moves_skipped", move=move.name)
                continue
            t0 = time.perf_counter()
            gain = move.apply(aig, window)
            if gain > 0:
                stats.moves_succeeded += 1
                stats.move_success[move.name] = (
                    stats.move_success.get(move.name, 0) + 1)
                registry.inc("gradient.moves_succeeded", move=move.name)
                registry.inc("gradient.gain", gain, move=move.name)
                obs.tracer().record("move", kind="move",
                                    wall_s=time.perf_counter() - t0,
                                    move=move.name, cost=move.cost,
                                    gain=gain)
                window_span.set("winner", move.name)
                window_span.set("gain", gain)
                return gain
            failed.record(aig, pair)
    return 0


def _parallel(aig: Aig, window: Window, admissible: List[Move],
              stats: GradientStats) -> int:
    """Evaluate every move on a scratch copy; apply the best on the network.

    This is the paper's parallel best-result selection; it "may overlook"
    nothing but costs one full-network clone per move, so it is only
    practical on small networks (the ablation uses it there).
    """
    registry = obs.metrics()
    best_move = None
    best_gain = 0
    for move in admissible:
        stats.moves_tried += 1
        stats.cost_spent += move.cost
        registry.inc("gradient.moves_tried", move=move.name)
        stats.move_attempts[move.name] = stats.move_attempts.get(move.name, 0) + 1
        scratch, mapping = aig.cleanup_with_map()
        remapped_nodes = [lit_node(mapping[n]) for n in window.nodes
                          if n in mapping and not aig.is_dead(n)]
        scratch_window = Window(nodes=remapped_nodes,
                                leaves=[lit_node(mapping[l]) for l in window.leaves
                                        if l in mapping],
                                roots=[lit_node(mapping[r]) for r in window.roots
                                       if r in mapping])
        gain = move.apply(scratch, scratch_window)
        if gain > best_gain:
            best_gain = gain
            best_move = move
    if best_move is None:
        return 0
    gain = best_move.apply(aig, window)
    if gain > 0:
        stats.moves_succeeded += 1
        stats.move_success[best_move.name] = (
            stats.move_success.get(best_move.name, 0) + 1)
        registry.inc("gradient.moves_succeeded", move=best_move.name)
        registry.inc("gradient.gain", gain, move=best_move.name)
    return gain


def _partitions(aig: Aig, config: GradientConfig) -> List[Window]:
    pc = config.partition or PartitionConfig(max_levels=16, max_size=300,
                                             max_leaves=30)
    return partition_network(aig, pc)
