"""Exhaustive functional tests of the word-level circuit builders."""

import math

import pytest

from repro.aig.aig import Aig
from repro.aig.compose import (
    barrel_shifter,
    constant_word,
    decoder,
    divider,
    equal,
    full_adder,
    hypotenuse,
    isqrt,
    max_word,
    multiplier,
    mux_word,
    onehot_mux,
    popcount,
    ripple_adder,
    square,
    subtractor,
)
from repro.aig.simulate import po_tables


def _eval_outputs(aig, tables, start, width, row):
    return sum(((tables[start + i] >> row) & 1) << i for i in range(width))


def _exhaustive(aig, widths):
    tables = po_tables(aig)
    return tables


class TestAdders:
    def test_full_adder_exhaustive(self):
        aig = Aig()
        a, b, c = aig.add_pis(3)
        s, cout = full_adder(aig, a, b, c)
        aig.add_po(s)
        aig.add_po(cout)
        tables = po_tables(aig)
        for row in range(8):
            bits = bin(row).count("1")
            assert (tables[0] >> row) & 1 == bits % 2
            assert (tables[1] >> row) & 1 == (bits >= 2)

    def test_ripple_adder_exhaustive(self):
        aig = Aig()
        a = aig.add_pis(3)
        b = aig.add_pis(3)
        total, carry = ripple_adder(aig, a, b)
        for s in total + [carry]:
            aig.add_po(s)
        tables = po_tables(aig)
        for av in range(8):
            for bv in range(8):
                row = av | (bv << 3)
                got = _eval_outputs(aig, tables, 0, 4, row)
                assert got == av + bv

    def test_subtractor_and_less_than(self):
        aig = Aig()
        a = aig.add_pis(3)
        b = aig.add_pis(3)
        diff, borrow = subtractor(aig, a, b)
        for d in diff:
            aig.add_po(d)
        aig.add_po(borrow)
        tables = po_tables(aig)
        for av in range(8):
            for bv in range(8):
                row = av | (bv << 3)
                got = _eval_outputs(aig, tables, 0, 3, row)
                assert got == (av - bv) % 8
                assert (tables[3] >> row) & 1 == (av < bv)


class TestMultiplyDivide:
    def test_multiplier_exhaustive(self):
        aig = Aig()
        a = aig.add_pis(3)
        b = aig.add_pis(3)
        for p in multiplier(aig, a, b):
            aig.add_po(p)
        tables = po_tables(aig)
        for av in range(8):
            for bv in range(8):
                row = av | (bv << 3)
                assert _eval_outputs(aig, tables, 0, 6, row) == av * bv

    def test_square_matches_multiplier(self):
        aig = Aig()
        a = aig.add_pis(3)
        for s in square(aig, a):
            aig.add_po(s)
        tables = po_tables(aig)
        for av in range(8):
            assert _eval_outputs(aig, tables, 0, 6, av) == av * av

    def test_divider_exhaustive(self):
        aig = Aig()
        n = aig.add_pis(3)
        d = aig.add_pis(3)
        q, r = divider(aig, n, d)
        for x in q + r:
            aig.add_po(x)
        tables = po_tables(aig)
        for nv in range(8):
            for dv in range(1, 8):
                row = nv | (dv << 3)
                assert _eval_outputs(aig, tables, 0, 3, row) == nv // dv
                assert _eval_outputs(aig, tables, 3, 3, row) == nv % dv

    def test_isqrt_exhaustive(self):
        aig = Aig()
        x = aig.add_pis(6)
        roots = isqrt(aig, x)
        for r in roots:
            aig.add_po(r)
        tables = po_tables(aig)
        for v in range(64):
            assert _eval_outputs(aig, tables, 0, len(roots), v) == math.isqrt(v)

    def test_hypotenuse_samples(self):
        aig = Aig()
        a = aig.add_pis(3)
        b = aig.add_pis(3)
        h = hypotenuse(aig, a, b)
        for x in h:
            aig.add_po(x)
        tables = po_tables(aig)
        for av in range(8):
            for bv in range(8):
                row = av | (bv << 3)
                got = _eval_outputs(aig, tables, 0, len(h), row)
                assert got == math.isqrt(av * av + bv * bv)


class TestSelectorsAndMisc:
    def test_mux_word_and_max(self):
        aig = Aig()
        a = aig.add_pis(3)
        b = aig.add_pis(3)
        m = max_word(aig, a, b)
        for x in m:
            aig.add_po(x)
        tables = po_tables(aig)
        for av in range(8):
            for bv in range(8):
                row = av | (bv << 3)
                assert _eval_outputs(aig, tables, 0, 3, row) == max(av, bv)

    def test_equal(self):
        aig = Aig()
        a = aig.add_pis(3)
        b = aig.add_pis(3)
        aig.add_po(equal(aig, a, b))
        tables = po_tables(aig)
        for av in range(8):
            for bv in range(8):
                row = av | (bv << 3)
                assert (tables[0] >> row) & 1 == (av == bv)

    def test_barrel_shifter_rotates(self):
        aig = Aig()
        data = aig.add_pis(4)
        shift = aig.add_pis(2)
        for o in barrel_shifter(aig, data, shift):
            aig.add_po(o)
        tables = po_tables(aig)
        for dv in range(16):
            for sv in range(4):
                row = dv | (sv << 4)
                got = _eval_outputs(aig, tables, 0, 4, row)
                expect = ((dv << sv) | (dv >> (4 - sv))) & 0xF if sv else dv
                assert got == expect

    def test_popcount(self):
        aig = Aig()
        bits = aig.add_pis(5)
        count = popcount(aig, bits)
        for c in count:
            aig.add_po(c)
        tables = po_tables(aig)
        for v in range(32):
            assert _eval_outputs(aig, tables, 0, len(count), v) == bin(v).count("1")

    def test_decoder_onehot(self):
        aig = Aig()
        sel = aig.add_pis(2)
        outs = decoder(aig, sel)
        for o in outs:
            aig.add_po(o)
        tables = po_tables(aig)
        for sv in range(4):
            for i in range(4):
                assert (tables[i] >> sv) & 1 == (i == sv)

    def test_onehot_mux(self):
        aig = Aig()
        selects = aig.add_pis(2)
        data = aig.add_pis(2)
        aig.add_po(onehot_mux(aig, selects, data))
        tables = po_tables(aig)
        for row in range(16):
            s = [(row >> i) & 1 for i in range(2)]
            d = [(row >> (2 + i)) & 1 for i in range(2)]
            expect = (s[0] and d[0]) or (s[1] and d[1])
            assert (tables[0] >> row) & 1 == expect

    def test_constant_word(self):
        assert constant_word(5, 4) == [1, 0, 1, 0]
        assert constant_word(0, 3) == [0, 0, 0]

    def test_width_mismatch_raises(self):
        from repro.errors import AigError
        aig = Aig()
        a = aig.add_pis(3)
        b = aig.add_pis(2)
        with pytest.raises(AigError):
            ripple_adder(aig, a, b)
        with pytest.raises(AigError):
            mux_word(aig, a[0], a, b)
