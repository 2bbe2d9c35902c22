"""Tests for the Minato–Morreale ISOP algorithm."""

import importlib
import random

import pytest

from repro.errors import ReproError
from repro.tt.isop import (
    cover_table,
    cube_literal_count,
    cube_table,
    isop,
    isop_table,
)
from repro.tt.truthtable import TruthTable, table_mask


def test_cube_table_basics():
    # x0 & !x1 over 2 vars
    assert cube_table((0b01, 0b10), 2) == 0b0010
    # tautology cube
    assert cube_table((0, 0), 2) == 0b1111


def test_isop_exact_cover_random():
    rng = random.Random(0)
    for n in range(1, 7):
        for _ in range(30):
            bits = rng.getrandbits(1 << n)
            t = TruthTable(bits, n)
            cubes = isop_table(t)
            assert cover_table(cubes, n) == bits


def test_isop_with_dont_cares_respects_bounds():
    rng = random.Random(1)
    for n in range(2, 7):
        for _ in range(30):
            on = rng.getrandbits(1 << n)
            dc = rng.getrandbits(1 << n)
            lower = TruthTable(on & ~dc, n)
            upper = TruthTable(on | dc, n)
            cover = cover_table(isop(lower, upper), n)
            assert lower.bits & ~cover == 0
            assert cover & ~upper.bits & table_mask(n) == 0


def test_isop_exploits_dont_cares():
    # onset {11}, dc {01,10}: with DCs a single-literal cube suffices
    lower = TruthTable(0b1000, 2)
    upper = TruthTable(0b1110, 2)
    with_dc = isop(lower, upper)
    without_dc = isop(lower, lower)
    assert cube_literal_count(with_dc) <= cube_literal_count(without_dc)


def test_isop_irredundant_random():
    """Removing any cube must uncover part of the onset."""
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 5)
        t = TruthTable(rng.getrandbits(1 << n), n)
        cubes = isop_table(t)
        for i in range(len(cubes)):
            reduced = cubes[:i] + cubes[i + 1:]
            assert cover_table(reduced, n) != t.bits or not cubes


def test_isop_constant_functions():
    assert isop_table(TruthTable.constant(False, 3)) == []
    taut = isop_table(TruthTable.constant(True, 3))
    assert taut == [(0, 0)]


def test_isop_invalid_bounds():
    with pytest.raises(ReproError):
        isop(TruthTable(0b1111, 2), TruthTable(0b0111, 2))
    with pytest.raises(ReproError):
        isop(TruthTable(0, 2), TruthTable(0, 3))


def test_isop_single_minterm():
    t = TruthTable(0b1000, 2)
    cubes = isop_table(t)
    assert len(cubes) == 1
    assert cube_literal_count(cubes) == 2


def test_isop_never_rebuilds_projection_masks(monkeypatch):
    # A 3-input majority in 12 variables.  The recursion finds its split
    # variables by halving cofactors; a search that built a projection
    # mask per step would build 19 here and 8,020 for a random
    # 12-variable table.  (``repro.tt.isop`` is looked up by name
    # because ``repro.tt`` re-exports the ``isop`` function under it.)
    isop_module = importlib.import_module("repro.tt.isop")
    calls = []
    original = isop_module.variable_table

    def counting(index, num_vars):
        calls.append(index)
        return original(index, num_vars)

    monkeypatch.setattr(isop_module, "variable_table", counting)
    n = 12
    x = [TruthTable.variable(i, n) for i in range(3)]
    maj = (x[0] & x[1]) | (x[0] & x[2]) | (x[1] & x[2])
    cubes = isop_table(maj)
    assert calls == []
    assert sorted(cubes) == sorted([(0b011, 0), (0b101, 0), (0b110, 0)])
