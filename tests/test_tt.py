"""Tests for the TruthTable value type."""

import pytest

from repro.errors import ReproError
from repro.tt.truthtable import TruthTable, table_mask, variable_table


class TestConstruction:
    def test_constants(self):
        assert TruthTable.constant(False, 3).bits == 0
        assert TruthTable.constant(True, 3).bits == 0xFF

    def test_variables(self):
        assert TruthTable.variable(0, 2).bits == 0b1010
        assert TruthTable.variable(1, 2).bits == 0b1100

    def test_from_values(self):
        t = TruthTable.from_values([0, 1, 1, 0], 2)
        assert t.bits == 0b0110

    def test_from_hex(self):
        t = TruthTable.from_hex("e8", 3)
        assert t.bits == 0xE8  # majority

    def test_bits_masked(self):
        t = TruthTable(0xFFFF, 2)
        assert t.bits == 0xF


class TestOperators:
    def test_boolean_ops(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (a ^ b).bits == 0b0110
        assert (~a).bits == 0b0101

    def test_mismatched_vars_raise(self):
        with pytest.raises(ReproError):
            TruthTable.variable(0, 2) & TruthTable.variable(0, 3)

    def test_hash_and_eq(self):
        a = TruthTable(0b0110, 2)
        b = TruthTable(0b0110, 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != TruthTable(0b0110, 3)


class TestQueries:
    def test_value_and_count(self):
        maj = TruthTable(0xE8, 3)
        assert maj.value(0b011) == 1
        assert maj.value(0b001) == 0
        assert maj.count_ones() == 4

    def test_support(self):
        t = TruthTable.variable(1, 3)
        assert t.support() == [1]
        assert not t.depends_on(0)
        assert t.depends_on(1)

    def test_constant_checks(self):
        assert TruthTable.constant(False, 2).is_const0()
        assert TruthTable.constant(True, 2).is_const1()


class TestTransforms:
    def test_cofactors(self):
        maj = TruthTable(0xE8, 3)
        pos = maj.cofactor(2, True)   # maj(a,b,1) = a|b
        neg = maj.cofactor(2, False)  # maj(a,b,0) = a&b
        a = TruthTable.variable(0, 3)
        b = TruthTable.variable(1, 3)
        assert pos == (a | b)
        assert neg == (a & b)

    def test_quantifiers(self):
        maj = TruthTable(0xE8, 3)
        assert maj.exists(2) == (TruthTable.variable(0, 3) | TruthTable.variable(1, 3))
        assert maj.forall(2) == (TruthTable.variable(0, 3) & TruthTable.variable(1, 3))

    def test_boolean_difference(self):
        # d(a&b)/da = b
        ab = TruthTable.variable(0, 2) & TruthTable.variable(1, 2)
        assert ab.boolean_difference(0) == TruthTable.variable(1, 2)

    def test_flip_variable_involution(self):
        t = TruthTable(0b01101001, 3)
        assert t.flip_variable(1).flip_variable(1) == t

    def test_swap_variables(self):
        a = TruthTable.variable(0, 3)
        assert a.swap_variables(0, 2) == TruthTable.variable(2, 3)
        t = TruthTable(0xE8, 3)  # majority is symmetric
        assert t.swap_variables(0, 1) == t

    def test_permute_identity_and_rotation(self):
        t = TruthTable(0b11001010, 3)
        assert t.permute([0, 1, 2]) == t
        rotated = t.permute([1, 2, 0])
        # applying the inverse brings it back
        assert rotated.permute([2, 0, 1]) == t

    def test_expand(self):
        a = TruthTable.variable(0, 1)
        expanded = a.expand(3)
        assert expanded == TruthTable.variable(0, 3)
        with pytest.raises(ReproError):
            expanded.expand(2)

    def test_shrink_to_support(self):
        t = TruthTable.variable(2, 4)
        small, sup = t.shrink_to_support()
        assert sup == [2]
        assert small == TruthTable.variable(0, 1)

    def test_to_hex_roundtrip(self):
        t = TruthTable(0xE8, 3)
        assert TruthTable.from_hex(t.to_hex(), 3) == t


def test_variable_table_out_of_range():
    with pytest.raises(ReproError):
        variable_table(3, 3)
    with pytest.raises(ReproError):
        variable_table(-1, 3)


def test_table_mask():
    assert table_mask(0) == 1
    assert table_mask(3) == 0xFF
