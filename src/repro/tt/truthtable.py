"""Truth tables as arbitrary-precision integers.

A truth table over ``n`` variables is a ``2**n``-bit integer; bit ``i`` is the
function value under the assignment whose binary encoding is ``i`` (variable 0
least significant).  This is the "truth tables as reasoning engine" of
Section II-A: canonical, and fast for the ≈15-input windows Boolean methods
operate on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

from repro.errors import ReproError


def table_mask(num_vars: int) -> int:
    """All-ones truth table over *num_vars* variables."""
    return (1 << (1 << num_vars)) - 1


def variable_table(index: int, num_vars: int) -> int:
    """Truth table of the projection function ``x_index``.

    Closed form, no loop: with ``s = 2**index``, dividing the all-ones
    table by ``2**s + 1`` leaves the repeating word "s ones, s zeros"
    (the complement of ``x_index``), and shifting it up by ``s`` rows
    turns it into ``x_index``.
    """
    if not 0 <= index < num_vars:
        raise ReproError(f"variable {index} out of range for {num_vars} vars")
    run = 1 << index
    return (table_mask(num_vars) // ((1 << run) + 1)) << run


@lru_cache(maxsize=128)
def swap_mask(index: int, num_vars: int) -> int:
    """Delta-swap mask exchanging variables *index* and *index* + 1.

    Its set rows have ``x_index = 1`` and ``x_(index+1) = 0``; each pairs
    with the row ``2**index`` above it, where the two bits are the other
    way round.  Cached per (index, num_vars): the 120 masks up to 16
    variables fit.
    """
    return (variable_table(index, num_vars)
            & ~variable_table(index + 1, num_vars))


def swap_adjacent(bits: int, index: int, num_vars: int) -> int:
    """Table *bits* with variables *index* and *index* + 1 exchanged."""
    shift = 1 << index
    delta = ((bits >> shift) ^ bits) & swap_mask(index, num_vars)
    return bits ^ delta ^ (delta << shift)


class TruthTable:
    """A Boolean function of a fixed number of variables.

    Immutable value type with operator overloading: ``&``, ``|``, ``^``, ``~``
    all stay within the variable count.  The Boolean difference of the paper's
    Section III is literally ``f ^ g`` on this type.
    """

    __slots__ = ("bits", "num_vars")

    def __init__(self, bits: int, num_vars: int) -> None:
        self.num_vars = num_vars
        self.bits = bits & table_mask(num_vars)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: bool, num_vars: int) -> "TruthTable":
        """The constant-0 or constant-1 function."""
        return cls(table_mask(num_vars) if value else 0, num_vars)

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "TruthTable":
        """The projection function ``x_index``."""
        return cls(variable_table(index, num_vars), num_vars)

    @classmethod
    def from_values(cls, values: Iterable[int], num_vars: int) -> "TruthTable":
        """Build from an iterable of 0/1 output values, row 0 first."""
        bits = 0
        for i, v in enumerate(values):
            if v:
                bits |= 1 << i
        return cls(bits, num_vars)

    @classmethod
    def from_hex(cls, hex_string: str, num_vars: int) -> "TruthTable":
        """Build from a hexadecimal string (ABC style, MSB rows first)."""
        return cls(int(hex_string, 16), num_vars)

    # -- operators -------------------------------------------------------------

    def _coerce(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ReproError("truth table variable counts differ")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.bits & other.bits, self.num_vars)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.bits | other.bits, self.num_vars)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._coerce(other)
        return TruthTable(self.bits ^ other.bits, self.num_vars)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.bits ^ table_mask(self.num_vars), self.num_vars)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruthTable)
                and self.num_vars == other.num_vars
                and self.bits == other.bits)

    def __hash__(self) -> int:
        return hash((self.bits, self.num_vars))

    def __repr__(self) -> str:
        digits = max(1, (1 << self.num_vars) // 4)
        return f"TruthTable(0x{self.bits:0{digits}x}, {self.num_vars})"

    # -- queries -----------------------------------------------------------------

    def is_const0(self) -> bool:
        """True when the function is identically false."""
        return self.bits == 0

    def is_const1(self) -> bool:
        """True when the function is identically true."""
        return self.bits == table_mask(self.num_vars)

    def value(self, assignment: int) -> int:
        """Output (0/1) for the input row encoded by *assignment*."""
        return (self.bits >> assignment) & 1

    def count_ones(self) -> int:
        """Number of minterms (onset size)."""
        return bin(self.bits).count("1")

    def depends_on(self, var: int) -> bool:
        """True when the function actually depends on variable *var*."""
        return self.cofactor(var, False).bits != self.cofactor(var, True).bits

    def support(self) -> List[int]:
        """Indices of the variables the function depends on."""
        return [v for v in range(self.num_vars) if self.depends_on(v)]

    # -- transformations ------------------------------------------------------------

    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Shannon cofactor with respect to ``x_var = value``.

        The result is still expressed over all ``num_vars`` variables (the
        cofactored variable becomes irrelevant).
        """
        mask = variable_table(var, self.num_vars)
        if value:
            pos = self.bits & mask
            return TruthTable(pos | (pos >> (1 << var)), self.num_vars)
        neg = self.bits & ~mask
        return TruthTable(neg | (neg << (1 << var)), self.num_vars)

    def exists(self, var: int) -> "TruthTable":
        """Existential quantification over *var*."""
        return self.cofactor(var, False) | self.cofactor(var, True)

    def forall(self, var: int) -> "TruthTable":
        """Universal quantification over *var*."""
        return self.cofactor(var, False) & self.cofactor(var, True)

    def boolean_difference(self, var: int) -> "TruthTable":
        """Classic Boolean difference ``∂f/∂x_var`` (XOR of the cofactors)."""
        return self.cofactor(var, False) ^ self.cofactor(var, True)

    def flip_variable(self, var: int) -> "TruthTable":
        """Complement input variable *var* (an input negation)."""
        mask = variable_table(var, self.num_vars)
        shift = 1 << var
        hi = self.bits & mask
        lo = self.bits & ~mask
        return TruthTable((hi >> shift) | (lo << shift), self.num_vars)

    def swap_variables(self, a: int, b: int) -> "TruthTable":
        """Exchange input variables *a* and *b*."""
        if a == b:
            return self
        if a > b:
            a, b = b, a
        nbits = 1 << self.num_vars
        out = 0
        bits = self.bits
        for row in range(nbits):
            if not (bits >> row) & 1:
                continue
            bit_a = (row >> a) & 1
            bit_b = (row >> b) & 1
            if bit_a == bit_b:
                out |= 1 << row
            else:
                swapped = row ^ (1 << a) ^ (1 << b)
                out |= 1 << swapped
        return TruthTable(out, self.num_vars)

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Apply an input permutation: new variable *i* is old ``perm[i]``."""
        if sorted(perm) != list(range(self.num_vars)):
            raise ReproError("not a permutation")
        nbits = 1 << self.num_vars
        out = 0
        for row in range(nbits):
            if not (self.bits >> row) & 1:
                continue
            new_row = 0
            for new_var, old_var in enumerate(perm):
                if (row >> old_var) & 1:
                    new_row |= 1 << new_var
            out |= 1 << new_row
        return TruthTable(out, self.num_vars)

    def expand(self, num_vars: int) -> "TruthTable":
        """Re-express over a larger variable count (new variables unused)."""
        if num_vars < self.num_vars:
            raise ReproError("cannot shrink a truth table with expand()")
        bits = self.bits
        width = 1 << self.num_vars
        for _ in range(self.num_vars, num_vars):
            bits |= bits << width
            width <<= 1
        return TruthTable(bits, num_vars)

    def shrink_to_support(self) -> Tuple["TruthTable", List[int]]:
        """Project onto the support variables; returns (table, old indices)."""
        sup = self.support()
        nbits = 1 << len(sup)
        out = 0
        for row in range(nbits):
            full_row = 0
            for new_var, old_var in enumerate(sup):
                if (row >> new_var) & 1:
                    full_row |= 1 << old_var
            if (self.bits >> full_row) & 1:
                out |= 1 << row
        return TruthTable(out, len(sup)), sup

    def to_hex(self) -> str:
        """Hexadecimal string (without prefix), zero-padded to table width."""
        digits = max(1, (1 << self.num_vars) // 4)
        return f"{self.bits:0{digits}x}"
