"""Tests for Tseitin encoding, miters, and equivalence checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig, lit_not
from repro.aig.io_aiger import write_aag_string
from repro.aig.simulate import po_words, simulate_words
from repro.errors import SatError
from repro.sat.cnf import AigCnf, build_miter, prove_equivalent
from repro.sat.equivalence import (assert_equivalent, check_equivalence,
                                   find_counterexample)
from repro.sat.solver import SatSolver
from repro.sat.sweep import sat_sweep
from repro.sbm import FlowConfig, sbm_flow
from repro.sbm.simresub import simresub_pass
from tests.conftest import make_random_aig


def _distinguishes(aig_a, aig_b, inputs):
    """Whether the PI assignment *inputs* separates the two networks."""
    words = [(1 << 64) - 1 if bit else 0 for bit in inputs]
    out_a = po_words(aig_a, simulate_words(aig_a, words))
    out_b = po_words(aig_b, simulate_words(aig_b, words))
    return any((x ^ y) & 1 for x, y in zip(out_a, out_b))


def _monolithic_equivalent(aig_a, aig_b):
    """Reference verdict: the whole miter in one SAT call."""
    miter = build_miter(aig_a, aig_b)
    cnf = AigCnf(miter)
    return not cnf.solver.solve((cnf.sat_literal(miter.pos()[0]),))


class TestAigCnf:
    def test_prove_equal_structures(self):
        aig = Aig()
        a, b, c = aig.add_pis(3)
        f = aig.add_and(aig.add_and(a, b), c)
        g = aig.add_and(a, aig.add_and(b, c))
        cnf = AigCnf(aig)
        eq, cex = prove_equivalent(cnf, f, g)
        assert eq and cex is None

    def test_refute_with_counterexample(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        f = aig.add_and(a, b)
        g = aig.add_or(a, b)
        cnf = AigCnf(aig)
        eq, cex = prove_equivalent(cnf, f, g)
        assert not eq
        # cex must distinguish AND from OR: exactly one input true
        assert sum(cex) == 1

    def test_complemented_literals(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        f = aig.add_and(a, b)
        nand = lit_not(f)
        cnf = AigCnf(aig)
        eq, _ = prove_equivalent(cnf, nand, lit_not(f))
        assert eq
        eq, _ = prove_equivalent(cnf, nand, f)
        assert not eq

    def test_constants(self):
        aig = Aig()
        a = aig.add_pi()
        cnf = AigCnf(aig)
        eq, _ = prove_equivalent(cnf, aig.add_and(a, lit_not(a)), 0)
        assert eq

    def test_lazy_encoding(self):
        aig = Aig()
        a, b, c, d = aig.add_pis(4)
        small = aig.add_and(a, b)
        aig.add_and(aig.add_and(a, b), aig.add_and(c, d))
        cnf = AigCnf(aig)
        cnf.sat_literal(small)
        # Only the 2-input cone is encoded: <= 3 vars + const
        assert cnf.solver.num_vars <= 4


class TestMiter:
    def test_miter_unsat_for_equivalent(self, small_adder):
        clone = small_adder.cleanup()
        miter = build_miter(small_adder, clone)
        cnf = AigCnf(miter)
        out = cnf.sat_literal(miter.pos()[0])
        assert not cnf.solver.solve((out,))

    def test_miter_sat_for_different(self, small_adder):
        other = Aig()
        pis = other.add_pis(small_adder.num_pis)
        for i in range(small_adder.num_pos):
            other.add_po(pis[i % len(pis)])
        miter = build_miter(small_adder, other)
        cnf = AigCnf(miter)
        out = cnf.sat_literal(miter.pos()[0])
        assert cnf.solver.solve((out,))

    def test_miter_interface_mismatch(self, small_adder):
        other = Aig()
        other.add_pi()
        other.add_po(2)
        with pytest.raises(ValueError):
            build_miter(small_adder, other)


class TestCheckEquivalence:
    def test_exhaustive_path(self, small_mult):
        assert check_equivalence(small_mult, small_mult.cleanup())[0]

    def test_sat_path_large_inputs(self):
        a1 = Aig()
        xs = a1.add_pis(20)
        a1.add_po(a1.add_and_multi(xs))
        a2 = Aig()
        xs = a2.add_pis(20)
        acc = 1
        for x in xs:
            acc = a2.add_and(acc, x)
        a2.add_po(acc)
        ok, _ = check_equivalence(a1, a2)
        assert ok

    def test_counterexample_is_real(self, small_adder):
        broken = small_adder.cleanup()
        # flip one PO's phase
        broken.set_po(0, lit_not(broken.pos()[0]))
        ok, cex = check_equivalence(small_adder, broken)
        assert not ok and cex is not None
        assert _distinguishes(small_adder, broken, cex)

    def test_assert_equivalent_raises(self, small_adder):
        broken = small_adder.cleanup()
        broken.set_po(0, lit_not(broken.pos()[0]))
        with pytest.raises(AssertionError):
            assert_equivalent(small_adder, broken)

    def test_wrong_sat_model_is_an_error(self, monkeypatch):
        # AND of 20 inputs vs constant 0 differs on one minterm only, so the
        # SAT rung answers; a model that distinguishes no PO must raise
        # rather than blame PO 0.
        wide = Aig()
        wide.add_po(wide.add_and_multi(wide.add_pis(20)))
        zero = Aig()
        zero.add_pis(20)
        zero.add_po(0)
        monkeypatch.setattr(AigCnf, "extract_pi_assignment",
                            lambda self: [False] * 20)
        with pytest.raises(SatError):
            find_counterexample(wide, zero)


class TestSweepingCec:
    """The SAT rung sweeps the miter; one whole-miter SAT call is the
    reference."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), num_pis=st.integers(13, 24))
    def test_flow_output_is_equivalent(self, seed, num_pis):
        original = make_random_aig(num_pis, 90, seed, num_pos=6)
        optimized, _stats = sbm_flow(original, FlowConfig(iterations=1))
        assert _monolithic_equivalent(original, optimized)
        assert find_counterexample(original, optimized) is None

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), num_pis=st.integers(20, 28),
           po=st.integers(0, 5))
    def test_one_minterm_difference_is_found(self, seed, num_pis, po):
        original = make_random_aig(num_pis, 90, seed, num_pos=6)
        optimized, _stats = sbm_flow(original, FlowConfig(iterations=1))
        po %= optimized.num_pos
        minterm = optimized.add_and_multi(optimized.pi_literals())
        optimized.set_po(po, optimized.add_xor(optimized.pos()[po], minterm))
        assert not _monolithic_equivalent(original, optimized)
        cex = find_counterexample(original, optimized)
        assert cex is not None
        assert cex.inputs == [True] * num_pis and cex.po_index == po
        assert _distinguishes(original, optimized, cex.inputs)

    def test_one_check_per_miter_node(self, monkeypatch):
        # The wide nodes of both networks simulate to all zeros and join the
        # constant's class; each miter node still gets one check at most.
        tree = Aig("tree")
        tree.add_po(tree.add_and_multi(tree.add_pis(64)))
        chain = Aig("chain")
        acc = 1
        for x in chain.add_pis(64):
            acc = chain.add_and(acc, x)
        chain.add_po(acc)
        calls = []
        solve_limited = SatSolver.solve_limited

        def spy(self, *args, **kwargs):
            calls.append(args)
            return solve_limited(self, *args, **kwargs)

        monkeypatch.setattr(SatSolver, "solve_limited", spy)
        assert find_counterexample(tree, chain) is None
        assert len(calls) <= 2 * build_miter(tree, chain).num_ands + 1

    def test_structurally_equal_pair_needs_no_sat_call(self, monkeypatch):
        original = make_random_aig(16, 80, 3, num_pos=6)
        monkeypatch.setattr(SatSolver, "solve_limited", None)
        assert find_counterexample(original, original.cleanup()) is None


def test_undecided_proof_never_counts_as_proven(monkeypatch):
    # Every conflict-limited query runs out of conflicts; an unlimited one
    # still answers.  No caller of the shared check may read "undecided"
    # as "proven".
    original = make_random_aig(24, 90, 5, num_pos=6)
    optimized, _stats = sbm_flow(original, FlowConfig(iterations=1))
    minterm = optimized.add_and_multi(optimized.pi_literals())
    optimized.set_po(2, optimized.add_xor(optimized.pos()[2], minterm))
    resub_net = make_random_aig(8, 150, seed=7)
    assert simresub_pass(resub_net.cleanup()).rewrites > 0
    swept = make_random_aig(8, 150, seed=3)
    merges = sat_sweep(swept)
    assert merges > 0

    solve_limited = SatSolver.solve_limited

    def give_up(self, assumptions=(), conflict_limit=None):
        if conflict_limit is not None:
            return None
        return solve_limited(self, assumptions, conflict_limit)

    monkeypatch.setattr(SatSolver, "solve_limited", give_up)
    # The CEC sweep merges nothing; its unlimited residual call decides.
    cex = find_counterexample(original, optimized)
    assert cex is not None
    assert cex.inputs == [True] * 24 and cex.po_index == 2
    # simresub validates every candidate within a budget: none survives.
    stats = simresub_pass(resub_net)
    assert stats.rewrites == 0 and stats.candidates_validated == 0
    # sat_sweep proves without a limit, so it merges exactly as before.
    patched = make_random_aig(8, 150, seed=3)
    assert sat_sweep(patched) == merges
    assert write_aag_string(patched.cleanup()) == \
        write_aag_string(swept.cleanup())
