"""Irredundant sum-of-products via the Minato–Morreale algorithm.

Computes an irredundant cover of any function between a lower bound ``L``
(onset) and an upper bound ``U`` (onset plus don't cares).  Don't cares are
central to Boolean methods (Section II), and the interval form lets the same
routine serve plain covering (``L = U``) and don't-care-aware resynthesis
(``L = onset``, ``U = onset | dc``).

Cubes are pairs of variable bitmasks ``(pos, neg)``: variable *v* appears as a
positive literal when bit *v* of ``pos`` is set, negative when bit *v* of
``neg`` is set.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ReproError
from repro.tt.truthtable import TruthTable, table_mask, variable_table

Cube = Tuple[int, int]


def cube_table(cube: Cube, num_vars: int) -> int:
    """Truth table (integer) of a cube over *num_vars* variables."""
    pos, neg = cube
    bits = table_mask(num_vars)
    for v in range(num_vars):
        if (pos >> v) & 1:
            bits &= variable_table(v, num_vars)
        if (neg >> v) & 1:
            bits &= ~variable_table(v, num_vars)
    return bits & table_mask(num_vars)


def cover_table(cubes: List[Cube], num_vars: int) -> int:
    """Truth table (integer) of a sum of cubes."""
    bits = 0
    for cube in cubes:
        bits |= cube_table(cube, num_vars)
    return bits


def isop(lower: TruthTable, upper: TruthTable) -> List[Cube]:
    """Irredundant SOP cover ``C`` with ``lower ⊆ C ⊆ upper``.

    Raises :class:`ReproError` when ``lower ⊄ upper``.
    """
    if lower.num_vars != upper.num_vars:
        raise ReproError("isop bounds must share the variable count")
    if lower.bits & ~upper.bits & table_mask(lower.num_vars):
        raise ReproError("isop lower bound not contained in upper bound")
    cubes: List[Cube] = []
    _isop_rec(lower.bits, upper.bits, lower.num_vars, 0, 0, cubes)
    return cubes


def isop_table(table: TruthTable) -> List[Cube]:
    """Irredundant SOP of an exactly specified function."""
    return isop(table, table)


def _isop_rec(lower: int, upper: int, num_vars: int, pos: int, neg: int,
              cubes: List[Cube]) -> int:
    """Recursive Minato–Morreale; returns the cover's table bits.

    *lower* and *upper* are ``2**num_vars``-bit tables over variables
    ``0 .. num_vars-1`` with ``lower ⊆ upper``, and the returned cover has
    the same width.  The top variables neither bound depends on are
    dropped by halving both tables, so each recursive call gets cofactors
    of ``2**v`` bits, where *v* is the split variable; on return the
    cover is widened back, one doubling per dropped variable.

    The cover's cubes, each ANDed with the literals ``(pos, neg)`` chosen
    above this call, are appended to *cubes*: the negative branch's, then
    the positive branch's, then those free of *v*.
    """
    if lower == 0:
        return 0
    if upper == table_mask(num_vars):
        cubes.append((pos, neg))
        return upper
    # Drop the top variables until one bound depends on the top one, v:
    # the tables are then 2 * half bits wide and each half is a cofactor.
    v = num_vars - 1
    half = 1 << v
    low = (1 << half) - 1
    while lower >> half == lower & low and upper >> half == upper & low:
        lower &= low
        upper &= low
        v -= 1
        half >>= 1
        low >>= half
    l0, l1 = lower & low, lower >> half
    u0, u1 = upper & low, upper >> half
    var_bit = 1 << v
    # Cubes required exclusively in each branch.
    f0 = _isop_rec(l0 & ~u1, u0, v, pos, neg | var_bit, cubes)
    f1 = _isop_rec(l1 & ~u0, u1, v, pos | var_bit, neg, cubes)
    # Remaining minterms can be covered without literal v.
    f2 = _isop_rec((l0 & ~f0) | (l1 & ~f1), u0 & u1, v, pos, neg, cubes)
    table = f0 | f2 | ((f1 | f2) << half)
    width = half << 1
    while width < 1 << num_vars:
        table |= table << width
        width <<= 1
    return table


def cube_literal_count(cubes: List[Cube]) -> int:
    """Total number of literals in a cube list."""
    return sum(bin(pos).count("1") + bin(neg).count("1") for pos, neg in cubes)
