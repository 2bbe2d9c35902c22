"""Sum-of-products (SOP) covers and their basic algebra.

Kernel extraction's effectiveness "depends on the properties and
characteristics of the nodes' SOPs" (Section IV-B); this module provides the
cover datatype that node elimination grows and kerneling factors.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.sop.cube import (
    Cube,
    TAUTOLOGY_CUBE,
    cube_and,
    cube_support,
)


class Sop:
    """An SOP cover: a list of cubes over integer-indexed variables.

    The cover is kept *minimal with respect to single-cube containment*
    (no duplicate cubes, no cube containing another), which is the standard
    normal form algebraic methods operate on.
    """

    __slots__ = ("cubes",)

    def __init__(self, cubes: Iterable[Cube] = ()) -> None:
        self.cubes: List[Cube] = []
        for cube in cubes:
            self.add_cube(cube)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, value: bool) -> "Sop":
        """Constant-0 (empty cover) or constant-1 (tautology cube) SOP."""
        return cls([TAUTOLOGY_CUBE]) if value else cls()

    @classmethod
    def literal(cls, var: int, positive: bool = True) -> "Sop":
        """Single-literal SOP."""
        return cls([(1 << var, 0) if positive else (0, 1 << var)])

    # -- normal form -------------------------------------------------------------

    def add_cube(self, cube: Cube) -> None:
        """Insert a cube, maintaining single-cube-containment minimality.

        One scan with inlined bit tests: bail on the first covering cube,
        and materialize the survivor list lazily only when the new cube
        actually swallows an existing one.  Containment minimality is an
        antichain, so the covered/covering outcomes are order-independent.
        """
        p, n = cube
        if p & n:
            return
        cubes = self.cubes
        survivors = None
        for i, c in enumerate(cubes):
            ep, en = c
            if not (ep & ~p) and not (en & ~n):
                return  # existing cube already covers the new one
            if not (p & ~ep) and not (n & ~en):
                if survivors is None:
                    survivors = cubes[:i]
            elif survivors is not None:
                survivors.append(c)
        if survivors is None:
            cubes.append(cube)
        else:
            survivors.append(cube)
            self.cubes = survivors

    # -- queries --------------------------------------------------------------------

    def is_const0(self) -> bool:
        """True for the empty cover."""
        return not self.cubes

    def is_const1(self) -> bool:
        """True when the cover contains the tautology cube."""
        return any(c == TAUTOLOGY_CUBE for c in self.cubes)

    def num_cubes(self) -> int:
        """Number of cubes (terms)."""
        return len(self.cubes)

    def num_literals(self) -> int:
        """Total literal count — the cost metric of elimination/kerneling."""
        return sum(p.bit_count() + n.bit_count() for p, n in self.cubes)

    def support_mask(self) -> int:
        """Bitmask of variables appearing in the cover."""
        mask = 0
        for cube in self.cubes:
            mask |= cube_support(cube)
        return mask

    def support(self) -> List[int]:
        """Sorted list of variables appearing in the cover."""
        from repro.sop.bitutil import bits_list
        return bits_list(self.support_mask())

    def literal_occurrences(self) -> dict:
        """Map from (var, positive) to occurrence count across cubes."""
        occ: dict = {}
        get = occ.get
        for pos, neg in self.cubes:
            while pos:
                low = pos & -pos
                pos ^= low
                key = (low.bit_length() - 1, True)
                occ[key] = get(key, 0) + 1
            while neg:
                low = neg & -neg
                neg ^= low
                key = (low.bit_length() - 1, False)
                occ[key] = get(key, 0) + 1
        return occ

    def copy(self) -> "Sop":
        """Shallow copy (cubes are immutable tuples)."""
        out = Sop()
        out.cubes = list(self.cubes)
        return out

    # -- algebra ------------------------------------------------------------------------

    def __or__(self, other: "Sop") -> "Sop":
        out = self.copy()
        for cube in other.cubes:
            out.add_cube(cube)
        return out

    def __and__(self, other: "Sop") -> "Sop":
        out = Sop()
        for a in self.cubes:
            for b in other.cubes:
                product = cube_and(a, b)
                if product is not None:
                    out.add_cube(product)
        return out

    def and_cube(self, cube: Cube) -> "Sop":
        """Product of the cover with a single cube."""
        out = Sop()
        for c in self.cubes:
            product = cube_and(c, cube)
            if product is not None:
                out.add_cube(product)
        return out

    def evaluate(self, assignment: int) -> bool:
        """Evaluate under a variable assignment given as a bitmask."""
        for pos, neg in self.cubes:
            if (assignment & pos) == pos and (assignment & neg) == 0:
                return True
        return False

    def to_truth_bits(self, num_vars: int) -> int:
        """Truth table integer over *num_vars* variables."""
        bits = 0
        for row in range(1 << num_vars):
            if self.evaluate(row):
                bits |= 1 << row
        return bits

    def complement(self, max_cubes: int = 4096) -> Optional["Sop"]:
        """Complement via Shannon expansion; None when it exceeds *max_cubes*.

        Needed when elimination substitutes a node that fanouts use in the
        negative phase.
        """
        result = _complement_rec(self, max_cubes)
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sop) and sorted(self.cubes) == sorted(other.cubes)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.cubes)))

    def __repr__(self) -> str:
        return f"Sop({self.cubes!r})"

    def pretty(self, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable form, e.g. ``a·!b + c``."""
        if self.is_const0():
            return "0"
        if self.is_const1():
            return "1"
        terms = []
        for pos, neg in sorted(self.cubes):
            literals = []
            v = 0
            p, n = pos, neg
            while p or n:
                label = names[v] if names else f"x{v}"
                if p & 1:
                    literals.append(label)
                if n & 1:
                    literals.append(f"!{label}")
                p >>= 1
                n >>= 1
                v += 1
            terms.append("·".join(literals) if literals else "1")
        return " + ".join(terms)


def _complement_rec(sop: Sop, max_cubes: int) -> Optional[Sop]:
    if sop.is_const0():
        return Sop.constant(True)
    if sop.is_const1():
        return Sop.constant(False)
    if len(sop.cubes) == 1:
        # De Morgan on a single cube.
        from repro.sop.bitutil import iter_bits
        pos, neg = sop.cubes[0]
        out = Sop()
        for v in iter_bits(pos):
            out.add_cube((0, 1 << v))
        for v in iter_bits(neg):
            out.add_cube((1 << v, 0))
        return out
    # Shannon split on the most frequent variable.
    occ = sop.literal_occurrences()
    var = max(occ, key=lambda key: occ[key])[0]
    bit = 1 << var
    cof_pos = Sop([( (p & ~bit), n) for p, n in sop.cubes if not (n & bit)])
    cof_neg = Sop([(p, (n & ~bit)) for p, n in sop.cubes if not (p & bit)])
    comp_pos = _complement_rec(cof_pos, max_cubes)
    comp_neg = _complement_rec(cof_neg, max_cubes)
    if comp_pos is None or comp_neg is None:
        return None
    out = comp_pos.and_cube((bit, 0)) | comp_neg.and_cube((0, bit))
    if len(out.cubes) > max_cubes:
        return None
    return out
