"""Tests for kernel computation and factoring."""

import random

from repro.aig.aig import Aig
from repro.aig.simulate import po_tables
from repro.sop.factor import (
    factor,
    factored_literal_count,
    factored_pretty,
    factored_to_aig,
    sop_to_aig,
)
from repro.sop.kernels import (
    best_kernel,
    is_cube_free,
    kernel_value,
    kernels,
    make_cube_free,
)
from repro.sop.sop import Sop

from tests.test_sop_algebra import random_sop


class TestKernels:
    def test_textbook_kernels(self):
        # F = ace + bce + de + g (classic example): kernels include
        # {a+b, ac+bc ... }; co-kernel ce yields kernel a+b
        a, b, c, d, e, g = (1 << i for i in range(6))
        f = Sop([(a | c | e, 0), (b | c | e, 0), (d | e, 0), (g, 0)])
        ks = kernels(f)
        kernel_sets = [sorted(k.cubes) for k, _ck in ks]
        assert sorted([(a, 0), (b, 0)]) in kernel_sets
        # the cover itself is cube-free, so it is its own level-n kernel
        assert sorted(f.cubes) in kernel_sets

    def test_kernels_are_cube_free(self):
        rng = random.Random(0)
        for _ in range(40):
            n = rng.randint(2, 6)
            f = random_sop(rng, n, rng.randint(2, 8))
            for k, _ck in kernels(f):
                assert is_cube_free(k)

    def test_make_cube_free(self):
        a, b, c = (1 << i for i in range(3))
        f = Sop([(a | b, 0), (a | c, 0)])
        free, common = make_cube_free(f)
        assert common == (a, 0)
        assert sorted(free.cubes) == [(b, 0), (c, 0)]

    def test_single_cube_no_kernels(self):
        f = Sop([(0b111, 0)])
        assert kernels(f) == []

    def test_kernel_value_counts_sharing(self):
        a, b, c, d = (1 << i for i in range(4))
        # two nodes sharing divisor (a + b)
        n1 = Sop([(a | c, 0), (b | c, 0)])
        n2 = Sop([(a | d, 0), (b | d, 0)])
        kernel = Sop([(a, 0), (b, 0)])
        assert kernel_value([n1, n2], kernel) > 0

    def test_best_kernel_finds_shared_divisor(self):
        a, b, c, d = (1 << i for i in range(4))
        n1 = Sop([(a | c, 0), (b | c, 0)])
        n2 = Sop([(a | d, 0), (b | d, 0)])
        found = best_kernel([n1, n2])
        assert found is not None
        kernel, value = found
        assert sorted(kernel.cubes) == [(a, 0), (b, 0)]
        assert value > 0

    def test_best_kernel_none_when_nothing_shared(self):
        f = Sop([(0b1, 0)])
        assert best_kernel([f]) is None

    def test_priority_chain_walks_each_cokernel_once(self, monkeypatch):
        # F = x0 + !x0·x1 + !x0·!x1·x2 + ... over 16 terms.  Its kernels are
        # the chains over x_j..x_15 with co-kernel !x0·...·!x_{j-1}; without
        # the co-kernel check the walk re-enters them along every subset of
        # the negated prefix, 2^14 recursive calls.
        n = 16
        f = Sop([(1 << i, (1 << i) - 1) for i in range(n)])
        expected = [
            ([(1 << i, ((1 << i) - 1) & ~((1 << j) - 1)) for i in range(j, n)],
             (0, (1 << j) - 1))
            for j in range(n - 1)
        ]
        calls = []
        original = Sop.literal_occurrences

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Sop, "literal_occurrences", counting)
        found = [(k.cubes, ck) for k, ck in kernels(f, 50)]
        assert found == expected
        assert len(calls) <= 32


class TestFactoring:
    def test_factor_preserves_function(self):
        rng = random.Random(1)
        for _ in range(80):
            n = rng.randint(1, 6)
            f = random_sop(rng, n, rng.randint(0, 7))
            aig = Aig()
            xs = aig.add_pis(n)
            out = factored_to_aig(factor(f), aig, xs)
            aig.add_po(out)
            assert po_tables(aig)[0] == f.to_truth_bits(n)

    def test_factor_reduces_literals(self):
        # F = ac + ad + bc + bd: flat 8 literals, factored (a+b)(c+d) = 4
        a, b, c, d = (1 << i for i in range(4))
        f = Sop([(a | c, 0), (a | d, 0), (b | c, 0), (b | d, 0)])
        form = factor(f)
        assert factored_literal_count(form) <= 5

    def test_factor_constants(self):
        assert factor(Sop.constant(False)) == ("const", False)
        assert factor(Sop.constant(True)) == ("const", True)

    def test_factored_pretty(self):
        a, b, c = (1 << i for i in range(3))
        f = Sop([(a | b, 0), (a | c, 0)])
        text = factored_pretty(factor(f), ["a", "b", "c"])
        assert "a" in text and "+" in text

    def test_sop_to_aig(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 5)
            f = random_sop(rng, n, rng.randint(0, 5))
            aig = Aig()
            xs = aig.add_pis(n)
            aig.add_po(sop_to_aig(f, aig, xs))
            assert po_tables(aig)[0] == f.to_truth_bits(n)
