"""Tests for the gradient-based AIG engine (Section IV-A)."""

import pytest

from repro import obs
from repro.aig import checksum
from repro.bench.registry import get_benchmark
from repro.opt.rewrite import rewrite
from repro.opt.scripts import compress2rs_step
from repro.partition.partitioner import PartitionConfig
from repro.sat.equivalence import assert_equivalent, check_equivalence
from repro.sbm.config import GradientConfig
from repro.sbm.gradient import gradient_optimize
from repro.sbm.moves import DEFAULT_MOVES, Move
from tests import reference_paths as ref
from tests.conftest import make_random_aig


def test_default_moves_match_paper():
    """The paper's move list: rewriting, refactoring, resub, mspf resub,
    eliminate/simplify & kerneling; all but rewriting in two efforts."""
    names = {m.name for m in DEFAULT_MOVES}
    assert "rewrite" in names
    for base in ("resub", "refactor", "kernel", "mspf"):
        assert f"{base}_lo" in names
        assert f"{base}_hi" in names
    # rewriting is the unit-cost move
    assert min(m.cost for m in DEFAULT_MOVES) == \
        next(m.cost for m in DEFAULT_MOVES if m.name == "rewrite")


def test_function_preserved(random_aig_factory):
    for seed in range(4):
        aig = random_aig_factory(10, 200, seed=seed)
        reference = aig.cleanup()
        gradient_optimize(aig, GradientConfig(cost_budget=30))
        aig.check()
        ok, _ = check_equivalence(reference, aig.cleanup())
        assert ok, seed


def test_optimizes(random_aig_factory):
    aig = random_aig_factory(10, 250, seed=42)
    before = aig.cleanup().num_ands
    stats = gradient_optimize(aig, GradientConfig(cost_budget=40))
    assert aig.cleanup().num_ands < before
    assert stats.total_gain > 0


def test_budget_respected(random_aig_factory):
    aig = random_aig_factory(10, 250, seed=1)
    stats = gradient_optimize(aig, GradientConfig(cost_budget=10))
    # budget may be slightly exceeded by the last move, or extended
    limit = 10 + stats.budget_extensions * GradientConfig().budget_extension
    assert stats.cost_spent <= limit + max(m.cost for m in DEFAULT_MOVES)


def test_waterfall_starts_with_unit_cost_moves(random_aig_factory):
    aig = random_aig_factory(10, 200, seed=2)
    stats = gradient_optimize(aig, GradientConfig(cost_budget=5))
    # with a tiny budget only cheap moves are tried
    tried = set(stats.move_attempts)
    assert tried <= {"rewrite"} or "rewrite" in tried


def test_success_history_recorded(random_aig_factory):
    aig = random_aig_factory(10, 250, seed=3)
    stats = gradient_optimize(aig, GradientConfig(cost_budget=60))
    assert stats.moves_tried >= stats.moves_succeeded
    for name, wins in stats.move_success.items():
        assert wins <= stats.move_attempts[name]
    assert 0.0 <= stats.success_rate("rewrite") <= 1.0


def test_early_termination_on_zero_gradient():
    """A network at its local minimum terminates early (gain gradient 0)."""
    from repro.aig.aig import Aig
    aig = Aig()
    a, b = aig.add_pis(2)
    aig.add_po(aig.add_and(a, b))
    stats = gradient_optimize(aig, GradientConfig(cost_budget=1000,
                                                  window_k=2))
    assert stats.cost_spent < 1000


def test_parallel_selection_mode(random_aig_factory):
    aig = random_aig_factory(8, 120, seed=4)
    reference = aig.cleanup()
    moves = [m for m in DEFAULT_MOVES if m.name in ("rewrite", "resub_lo")]
    gradient_optimize(aig, GradientConfig(cost_budget=12), moves=moves,
                      selection="parallel")
    aig.check()
    assert_equivalent(reference, aig.cleanup())


def test_custom_move_injection(random_aig_factory):
    calls = []

    def noop(aig, window):
        calls.append(len(window.nodes))
        return 0

    aig = random_aig_factory(8, 100, seed=5)
    gradient_optimize(aig, GradientConfig(cost_budget=6),
                      moves=[Move("noop", 1, noop)])
    assert calls  # the engine exercised the injected move


def _shallow_rewrite(aig, window):
    """Rewrite only windows that start at level 0 or 1 (a deterministic
    function of the network and the window, as every move must be)."""
    if window.level_span[0] <= 1:
        return rewrite(aig, node_filter=set(window.nodes))
    return 0


@pytest.mark.parametrize("seed", [0, 1, 3, 4, 5])
def test_total_gain_counts_a_run_that_stops_early(seed):
    """The early-termination exit reports the nodes the run removed."""
    aig = make_random_aig(10, 300, seed)
    before = aig.num_ands
    config = GradientConfig(window_k=2, partition=PartitionConfig(
        max_levels=3, max_size=30, max_leaves=12))
    stats = gradient_optimize(aig, config,
                              moves=[Move("shallow", 1, _shallow_rewrite)])
    assert stats.terminated_early
    assert aig.num_ands < before
    assert stats.total_gain == before - aig.num_ands


def _engine_input(name):
    """A random network, or a registry design after one compress2rs step
    (what the flow hands the engine)."""
    if name.startswith("rand"):
        return make_random_aig(10, 300, int(name[4:]))
    return compress2rs_step(get_benchmark(name))


def _live_key(aig):
    """PO literals and ``(node, fanin0, fanin1)`` of every live AND."""
    return (tuple(aig.pos()),
            tuple((n, aig.fanin0(n), aig.fanin1(n)) for n in aig.ands()))


_SAME_STATS = ("moves_tried", "moves_succeeded", "cost_spent",
               "budget_extensions", "gain_history", "move_attempts",
               "move_success", "terminated_early")


@pytest.mark.parametrize("name", ["rand0", "rand1", "rand3", "rand5",
                                  "router", "priority"])
def test_engine_matches_the_frozen_loop(name):
    """Skipping known failures changes neither the network nor the run's
    accounting: the same moves are charged, won and recorded as in the
    loop that ran every move."""
    start = _engine_input(name)
    aig, reference = start.clone(), start.clone()
    stats = gradient_optimize(aig)
    ref_stats = ref.gradient_optimize(reference)
    assert stats.moves_skipped > 0            # the memo was exercised
    assert checksum(aig) == checksum(reference)
    for field in _SAME_STATS:
        assert getattr(stats, field) == getattr(ref_stats, field), field
    assert stats.total_gain == start.num_ands - aig.num_ands
    if not ref_stats.terminated_early:    # the frozen early exit is stale
        assert stats.total_gain == ref_stats.total_gain


def test_a_failed_move_is_not_run_again_on_an_unchanged_window():
    """Work count: every move that runs sees a (move, window, live network)
    it has not seen before; the rest are charged and counted as skipped."""
    runs = []

    def counted(move):
        def apply(aig, window):
            runs.append((move.name, tuple(window.nodes), _live_key(aig)))
            return move.apply(aig, window)
        return Move(move.name, move.cost, apply)

    aig = _engine_input("router")
    session = obs.enable()
    try:
        stats = gradient_optimize(aig,
                                  moves=[counted(m) for m in DEFAULT_MOVES])
    finally:
        obs.disable()
    assert len(set(runs)) == len(runs)
    assert stats.moves_skipped == stats.moves_tried - len(runs) > 0
    skipped = session.metrics.counters_with_prefix("gradient.moves_skipped")
    assert sum(skipped.values()) == stats.moves_skipped
    (engine,) = session.tracer.roots
    assert engine.attrs["moves_skipped"] == stats.moves_skipped
