"""Algebraic (weak) division of SOP covers.

Division is the workhorse behind kernel extraction and the Boolean-division
generalization the paper alludes to in Section IV-B ("it applies, more
generally, to Boolean division as well").  Given covers ``F`` and ``D``,
weak division finds ``Q`` and ``R`` with ``F = Q·D + R`` where ``Q·D`` uses
no distributive tricks (purely algebraic product).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sop.cube import Cube
from repro.sop.sop import Sop


def divide(f: Sop, d: Sop) -> Tuple[Sop, Sop]:
    """Weak-divide cover *f* by cover *d*; returns ``(quotient, remainder)``.

    The quotient is the largest cover ``Q`` such that ``Q·D ⊆ F`` cube-wise;
    remainder collects the cubes of ``F`` not produced by ``Q·D``.  When the
    divisor is empty, returns ``(0, F)``.

    The quotient is a set intersection, so it is independent of cube
    iteration order; the remainder is a subset of the (already minimal)
    cover of *f* in original order, so it is assigned directly without
    re-running containment minimization.
    """
    if d.is_const0():
        return Sop(), f.copy()
    f_cubes = f.cubes
    quotient: Optional[set] = None
    for dp, dn in d.cubes:
        partial = set()
        add = partial.add
        for fp, fn in f_cubes:
            if not (dp & ~fp) and not (dn & ~fn):
                add((fp & ~dp, fn & ~dn))
        if quotient is None:
            quotient = partial
        else:
            quotient &= partial
        if not quotient:
            return Sop(), f.copy()
    q_sop = Sop(sorted(quotient))
    product = q_sop & d
    product_cubes = set(product.cubes)
    remainder = Sop()
    remainder.cubes = [c for c in f_cubes if c not in product_cubes]
    return q_sop, remainder


def divide_by_cube(f: Sop, cube: Cube) -> Tuple[Sop, Sop]:
    """Divide by a single cube (cheap special case).

    Both outputs inherit minimality from *f*: quotients of distinct cubes
    of a minimal cover by the same cube stay distinct and containment-free
    (the divisor's literals are re-added uniformly), and the remainder is a
    subset of *f*'s cover — so neither side needs add_cube's containment
    scans.
    """
    dp, dn = cube
    q_cubes = []
    r_cubes = []
    for c in f.cubes:
        fp, fn = c
        if not (dp & ~fp) and not (dn & ~fn):
            q_cubes.append((fp & ~dp, fn & ~dn))
        else:
            r_cubes.append(c)
    quotient = Sop()
    quotient.cubes = q_cubes
    remainder = Sop()
    remainder.cubes = r_cubes
    return quotient, remainder


def is_algebraic_divisor(f: Sop, d: Sop) -> bool:
    """True when the quotient of ``f / d`` is non-empty."""
    quotient, _remainder = divide(f, d)
    return not quotient.is_const0()
