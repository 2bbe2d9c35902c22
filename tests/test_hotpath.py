"""Bit-identity proofs for the production fast paths.

Every fast path must produce *exactly* the results of its frozen
reference in :mod:`tests.reference_paths` — same values, same networks,
same counterexamples, same allocation-order-sensitive BDD node tables:

* compiled ``SimProgram`` / ``simulate_wide`` agree with the interpreted
  walk on random networks and random words (hypothesis-driven),
* the NPN LRU cache equals the uncached search for **all** 65536
  4-input functions,
* bitmask cut dominance equals the set-based subset test,
* BDD op caches / iteration preserve node ids and bailout points,
* the SAT sweeping / redundancy / guard / CEC call sites produce
  identical merges, networks, and counterexamples,
* the SOP algebra and the memoized kernel search return the same covers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cuts import Cut
from repro.aig.io_aiger import write_aag_string
from repro.aig.simprogram import (
    pack_rounds,
    sim_program,
    simulate_wide,
    wide_mask,
)
from repro.aig.simulate import (
    po_words,
    simulate_complete,
    simulate_words,
)
from repro.bdd import pool as bdd_pool
from repro.bdd.manager import BddManager
from repro.errors import BddLimitError
from repro.guard.stage_guard import StageGuard
from repro.sat.equivalence import find_counterexample
from repro.sat.redundancy import remove_redundancies
from repro.sat.sweep import sat_sweep
from repro.tt.npn import _npn_canonical_reference, npn_canonical
from repro.tt.truthtable import TruthTable

from tests import reference_paths as ref
from tests.conftest import make_random_aig


@pytest.fixture(autouse=True)
def _empty_bdd_pool():
    """Each test starts and ends with no pooled BDD managers."""
    bdd_pool.clear()
    yield
    bdd_pool.clear()


aig_specs = st.tuples(st.integers(2, 8), st.integers(1, 60),
                      st.integers(0, 10 ** 6))


# -- compiled simulation ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(aig_specs, st.integers(0, 10 ** 6))
def test_simulate_words_matches_reference(spec, word_seed):
    num_pis, num_nodes, seed = spec
    aig = make_random_aig(num_pis, num_nodes, seed)
    rng = random.Random(word_seed)
    words = [rng.getrandbits(64) for _ in range(aig.num_pis)]
    hot = simulate_words(aig, words)
    frozen = ref.simulate_words(aig, words)
    assert hot == frozen
    assert po_words(aig, hot) == po_words(aig, frozen)


@settings(max_examples=40, deadline=None)
@given(aig_specs, st.integers(0, 10 ** 6), st.integers(1, 6))
def test_simulate_wide_matches_per_round_reference(spec, word_seed, rounds):
    num_pis, num_nodes, seed = spec
    aig = make_random_aig(num_pis, num_nodes, seed)
    rng = random.Random(word_seed)
    pattern_rounds = [[rng.getrandbits(64) for _ in range(aig.num_pis)]
                      for _ in range(rounds)]
    wide = simulate_wide(aig, pack_rounds(pattern_rounds), rounds)
    mask64 = (1 << 64) - 1
    for r, words in enumerate(pattern_rounds):
        frozen = ref.simulate_words(aig, words)
        for node, value in frozen.items():
            assert (wide[node] >> (64 * r)) & mask64 == value


@settings(max_examples=30, deadline=None)
@given(aig_specs)
def test_simulate_complete_matches_reference(spec):
    num_pis, num_nodes, seed = spec
    aig = make_random_aig(num_pis, num_nodes, seed)
    assert simulate_complete(aig) == ref.simulate_complete(aig)


def test_sim_program_invalidated_by_edits():
    aig = make_random_aig(4, 20, seed=11)
    p1 = sim_program(aig)
    assert sim_program(aig) is p1  # cached while untouched
    x = aig.pis()[0]
    aig.add_po(aig.add_and(2 * x, 3))
    p2 = sim_program(aig)
    assert p2 is not p1
    words = [random.Random(3).getrandbits(64) for _ in range(aig.num_pis)]
    assert simulate_words(aig, words) == ref.simulate_words(aig, words)


def test_sim_program_survives_dict_swap():
    """__dict__.update network replacement must not resurrect a stale
    program (generations are globally unique, not per-instance)."""
    a = make_random_aig(4, 25, seed=5)
    b = make_random_aig(4, 25, seed=6)
    sim_program(a)
    sim_program(b)
    fresh = b.cleanup()
    a.__dict__.update(fresh.__dict__)
    words = [random.Random(9).getrandbits(64) for _ in range(4)]
    assert simulate_words(a, words) == ref.simulate_words(a, words)


# -- NPN cache ----------------------------------------------------------------

def test_npn_cached_equals_reference_all_4var_tables():
    """Satellite: the LRU/transform-set path must equal the uncached
    search for every one of the 65536 4-input functions."""
    for bits in range(1 << 16):
        table = TruthTable(bits, 4)
        canon, transform = npn_canonical(table)
        ref_canon, ref_transform = _npn_canonical_reference(table)
        assert canon.bits == ref_canon.bits, hex(bits)
        assert transform == ref_transform, hex(bits)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 255))
def test_npn_cached_equals_reference_small(n, bits):
    bits &= (1 << (1 << n)) - 1
    table = TruthTable(bits, n)
    canon, transform = npn_canonical(table)
    ref_canon, ref_transform = _npn_canonical_reference(table)
    assert (canon.bits, transform) == (ref_canon.bits, ref_transform)


# -- cut signatures -----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
       st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
def test_cut_dominates_equals_set_subset(leaves_a, leaves_b):
    cut_a = Cut(tuple(sorted(leaves_a)))
    cut_b = Cut(tuple(sorted(leaves_b)))
    assert cut_a.dominates(cut_b) == set(leaves_a).issubset(leaves_b)


# -- BDD fast paths -----------------------------------------------------------

def _bdd_op_trace(seed, limit, manager_cls):
    rng = random.Random(seed)
    mgr = manager_cls(8, node_limit=limit)
    funcs = [mgr.var(i) for i in range(8)] + [mgr.nvar(i) for i in range(8)]
    trace = []
    for _ in range(300):
        op = rng.choice(["and", "or", "xor", "xnor", "not", "ite",
                         "exists", "compose"])
        try:
            if op == "not":
                r = mgr.negate(rng.choice(funcs))
            elif op == "ite":
                r = mgr.ite(rng.choice(funcs), rng.choice(funcs),
                            rng.choice(funcs))
            elif op == "exists":
                r = mgr.exists(rng.choice(funcs), [rng.randrange(8)])
            elif op == "compose":
                r = mgr.compose(rng.choice(funcs), rng.randrange(8),
                                rng.choice(funcs))
            else:
                r = getattr(mgr, f"apply_{op}")(rng.choice(funcs),
                                                rng.choice(funcs))
            funcs.append(r)
            trace.append(r)
        except BddLimitError:
            trace.append(-1)
    return trace, (tuple(mgr._var), tuple(mgr._low), tuple(mgr._high))


@pytest.mark.parametrize("limit", [None, 40, 120])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bdd_hot_path_preserves_node_ids_and_bailouts(seed, limit):
    """Node ids, unique-table contents, and BddLimitError points are
    allocation-order sensitive; the fast path must replay them exactly."""
    assert _bdd_op_trace(seed, limit, BddManager) == \
        _bdd_op_trace(seed, limit, ref.ReferenceBddManager)


def test_bdd_manager_reuse_is_functionally_identical():
    mgr = BddManager(5)
    f1 = mgr.apply_xor(mgr.var(0), mgr.var(1))
    bits_before = mgr.to_truth_bits(f1, 5)
    mgr.reset_for_reuse(5, node_limit=50_000)
    f2 = mgr.apply_xor(mgr.var(0), mgr.var(1))
    assert f2 == f1  # canonical: recycled table returns the same node
    assert mgr.to_truth_bits(f2, 5) == bits_before
    fresh = BddManager(5, node_limit=50_000)
    g = fresh.apply_xor(fresh.var(0), fresh.var(1))
    assert fresh.to_truth_bits(g, 5) == bits_before


def test_bdd_pool_round_trip_and_cap():
    bdd_pool.clear()
    m1 = bdd_pool.acquire(4, node_limit=1000)
    bdd_pool.release(m1)
    m2 = bdd_pool.acquire(6, node_limit=2000)
    assert m2 is m1  # recycled
    assert m2.num_vars == 6
    assert m2.node_limit == 2000


# -- optimizer call sites -----------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sat_sweep_matches_reference(seed):
    a = make_random_aig(5, 40, seed)
    b = make_random_aig(5, 40, seed)
    assert sat_sweep(a) == ref.sat_sweep(b)
    assert write_aag_string(a.cleanup()) == write_aag_string(b.cleanup())


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_remove_redundancies_matches_reference(seed):
    a = make_random_aig(5, 30, seed)
    b = make_random_aig(5, 30, seed)
    assert remove_redundancies(a, max_checks=25) == \
        ref.remove_redundancies(b, max_checks=25)
    assert write_aag_string(a.cleanup()) == write_aag_string(b.cleanup())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_find_counterexample_matches_reference(seed):
    # >12 PIs forces the random-simulation (wide scan) rung.
    a = make_random_aig(14, 50, seed, num_pos=6)
    b = make_random_aig(14, 50, seed + 1, num_pos=6)
    hot_same = find_counterexample(a, a.cleanup())
    hot_diff = find_counterexample(a, b)
    ref_same = ref.find_counterexample(a, a.cleanup())
    ref_diff = ref.find_counterexample(a, b)
    assert hot_same is None and ref_same is None
    if ref_diff is None:
        assert hot_diff is None
    else:
        assert hot_diff is not None
        assert (hot_diff.inputs, hot_diff.po_index) == \
            (ref_diff.inputs, ref_diff.po_index)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_stage_guard_fast_check_matches_reference(seed):
    ref_net = make_random_aig(9, 45, seed, num_pos=5)
    other = make_random_aig(9, 45, seed + 7, num_pos=5)
    guard_hot = StageGuard(ref_net.cleanup())
    guard_ref = ref.ReferenceStageGuard(ref_net.cleanup())
    cex_same_ref = guard_ref.fast_check(ref_net.cleanup())
    cex_diff_ref = guard_ref.fast_check(other)
    cex_same_hot = guard_hot.fast_check(ref_net.cleanup())
    cex_diff_hot = guard_hot.fast_check(other)
    assert cex_same_hot is None and cex_same_ref is None
    if cex_diff_ref is None:
        assert cex_diff_hot is None
    else:
        assert cex_diff_hot is not None
        assert (cex_diff_hot.inputs, cex_diff_hot.po_index) == \
            (cex_diff_ref.inputs, cex_diff_ref.po_index)
    assert (guard_hot.fast_checks, guard_hot.fast_rejects) == \
        (guard_ref.fast_checks, guard_ref.fast_rejects)


def test_wide_mask_and_pack_rounds_layout():
    assert wide_mask(1) == (1 << 64) - 1
    assert wide_mask(3) == (1 << 192) - 1
    rounds = [[1, 2], [3, 4]]
    packed = pack_rounds(rounds)
    assert packed == [1 | (3 << 64), 2 | (4 << 64)]
    assert pack_rounds([]) == []


# -- SOP fast paths -----------------------------------------------------------

def _random_cover(rng, num_vars, num_cubes):
    from repro.sop.sop import Sop
    sop = Sop()
    for _ in range(num_cubes):
        pos = neg = 0
        for v in range(num_vars):
            r = rng.random()
            if r < 0.3:
                pos |= 1 << v
            elif r < 0.45:
                neg |= 1 << v
        sop.add_cube((pos, neg))
    return sop


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sop_division_matches_reference(seed):
    from repro.sop.division import divide, divide_by_cube
    rng = random.Random(seed)
    nv = rng.randrange(2, 9)
    f = _random_cover(rng, nv, rng.randrange(1, 9))
    d = _random_cover(rng, nv, rng.randrange(1, 4))
    cube = (rng.getrandbits(nv), rng.getrandbits(nv) & ~f.support_mask())
    # A sub-cube of one of f's own cubes divides at least that cube, with
    # literals of both phases.
    fp, fn = rng.choice(f.cubes)
    sub_cube = (fp & rng.getrandbits(nv), fn & rng.getrandbits(nv))
    q_hot, r_hot = divide(f, d)
    q_ref, r_ref = ref.divide(f, d)
    assert q_hot.cubes == q_ref.cubes
    assert r_hot.cubes == r_ref.cubes
    for divisor in (cube, sub_cube):
        qc_hot, rc_hot = divide_by_cube(f, divisor)
        qc_ref, rc_ref = ref.divide_by_cube(f, divisor)
        assert qc_hot.cubes == qc_ref.cubes
        assert rc_hot.cubes == rc_ref.cubes


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sop_best_kernel_matches_reference(seed):
    from repro.sop.kernels import best_kernel, kernel_value, kernels
    rng = random.Random(seed)
    nv = rng.randrange(3, 10)
    nodes = [_random_cover(rng, nv, rng.randrange(2, 7))
             for _ in range(rng.randrange(2, 7))]
    cache: dict = {}
    found_cached = best_kernel(nodes, _cache=cache)
    found_replay = best_kernel(nodes, _cache=cache)
    found_plain = best_kernel(nodes)
    found_ref = ref.best_kernel(nodes)
    for found in (found_cached, found_replay, found_plain):
        if found_ref is None:
            assert found is None
        else:
            assert found is not None
            assert found[0].cubes == found_ref[0].cubes
            assert found[1] == found_ref[1]
    for node in nodes[:2]:
        for kernel, _ck in kernels(node, 10):
            assert kernel_value(nodes, kernel) == \
                ref.kernel_value(nodes, kernel)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sop_add_cube_matches_reference(seed):
    from repro.sop.sop import Sop
    rng = random.Random(seed)
    nv = rng.randrange(2, 8)
    cubes = []
    for _ in range(rng.randrange(1, 14)):
        cubes.append((rng.getrandbits(nv), rng.getrandbits(nv)))
    assert Sop(cubes).cubes == ref.ReferenceSop(cubes).cubes
