"""NPN canonicalization of truth tables.

Two functions are NPN-equivalent when one can be obtained from the other by
Negating inputs, Permuting inputs, and/or Negating the output.  The rewriting
move of the gradient engine (Section IV-A) matches 4-input cut functions
against a precomputed library keyed by NPN class, so canonicalization must be
deterministic and reasonably fast.

For up to 4 variables we canonicalize exactly by exhausting all
``2 * n! * 2**n`` transforms; beyond that a greedy semi-canonical form is used
(sufficient for hashing, not guaranteed minimal).

Fast path
---------
Up to 4 variables the exhaustive search does not rebuild
``permutations(range(n))`` or re-apply
:meth:`TruthTable.permute`/:meth:`~TruthTable.flip_variable` object chains
per invocation.  Instead, the per-arity transform set is precomputed once
at module load (permutation tuples plus, for every ``(perm, phase)`` pair,
byte-indexed lookup tables mapping raw table bits straight to transformed
bits), and results are memoized in an LRU cache keyed by
``(num_vars, bits)`` — cut functions repeat heavily, so most
canonicalizations are a single dict probe.  The original object-based
search, :func:`_npn_canonical_reference`, is the only path above 4
variables, and the test suite proves both return identical
``(canonical, transform)`` pairs for every 4-input function.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Tuple

from repro.tt.truthtable import TruthTable, table_mask

#: A transform: (output negated, input phase mask, permutation tuple).
NpnTransform = Tuple[bool, int, Tuple[int, ...]]

#: Per-arity permutation tuples, precomputed once at import
#: (``permutations(range(n))`` is never re-enumerated).
_PERMS: Dict[int, Tuple[Tuple[int, ...], ...]] = {
    n: tuple(permutations(range(n))) for n in range(5)
}


def _build_transforms(n: int):
    """Byte-LUT transform set for arity *n* (≤ 4), in search order.

    For every ``(perm, phase)`` pair — iterated exactly like the reference
    search: permutations in :func:`itertools.permutations` order, phases
    ascending — the composite row map is
    ``sigma(R) = sum(((R ^ phase) >> j & 1) << perm[j])``: bit ``R`` of the
    transformed table reads bit ``sigma(R)`` of the original.  That map is
    materialized as one (``n <= 3``) or two (``n == 4``) 256-entry lookup
    tables over the raw table bytes, so applying a transform is two indexed
    loads and an OR instead of ``2**n`` Python-object operations.
    """
    nrows = 1 << n
    out = []
    for perm in _PERMS[n]:
        for phase in range(nrows):
            # Inverted view: source bit sigma(R) feeds target bit R.
            target_of_source = [0] * nrows
            for row in range(nrows):
                src = 0
                r = row ^ phase
                for j in range(n):
                    if (r >> j) & 1:
                        src |= 1 << perm[j]
                target_of_source[src] |= 1 << row
            if nrows <= 8:
                width = 1 << nrows
                lut = [0] * width
                for x in range(1, width):
                    lsb = x & -x
                    lut[x] = lut[x ^ lsb] | target_of_source[lsb.bit_length() - 1]
                out.append((perm, phase, lut, None))
            else:  # n == 4: split the 16 table bits into two bytes
                lo = [0] * 256
                hi = [0] * 256
                for x in range(1, 256):
                    lsb = x & -x
                    bit = lsb.bit_length() - 1
                    lo[x] = lo[x ^ lsb] | target_of_source[bit]
                    hi[x] = hi[x ^ lsb] | target_of_source[bit + 8]
                out.append((perm, phase, lo, hi))
    return tuple(out)


#: The 4-input transform set (and the cheaper small arities), built once at
#: module load — the rewrite move canonicalizes 4-input cut functions almost
#: exclusively.
_TRANSFORMS = {n: _build_transforms(n) for n in range(5)}


def apply_transform(table: TruthTable, transform: NpnTransform) -> TruthTable:
    """Apply an NPN transform to a truth table."""
    out_neg, phase, perm = transform
    result = table.permute(perm)
    for v in range(table.num_vars):
        if (phase >> v) & 1:
            result = result.flip_variable(v)
    if out_neg:
        result = ~result
    return result


def invert_transform(transform: NpnTransform, num_vars: int) -> NpnTransform:
    """Return the transform undoing *transform*."""
    out_neg, phase, perm = transform
    inv_perm = [0] * num_vars
    for new_var, old_var in enumerate(perm):
        inv_perm[old_var] = new_var
    inv_phase = 0
    for new_var, old_var in enumerate(perm):
        if (phase >> new_var) & 1:
            inv_phase |= 1 << old_var
    return (out_neg, inv_phase, tuple(inv_perm))


@lru_cache(maxsize=1 << 16)
def _canonical_cached(bits: int, n: int) -> Tuple[int, NpnTransform]:
    """LRU-cached exhaustive search over the precomputed transform set.

    Iteration order and tie-breaking (strict ``<`` on the integer encoding,
    output negation tried after the positive phase) replicate the reference
    search exactly, so the winning transform tuple is identical.
    """
    mask = table_mask(n)
    best_bits = None
    best_transform: NpnTransform = (False, 0, tuple(range(n)))
    if n == 4:
        b_lo = bits & 0xFF
        b_hi = bits >> 8
        for perm, phase, lo, hi in _TRANSFORMS[4]:
            cand = lo[b_lo] | hi[b_hi]
            if best_bits is None or cand < best_bits:
                best_bits = cand
                best_transform = (False, phase, perm)
            cand ^= mask
            if cand < best_bits:
                best_bits = cand
                best_transform = (True, phase, perm)
    else:
        for perm, phase, lut, _hi in _TRANSFORMS[n]:
            cand = lut[bits]
            if best_bits is None or cand < best_bits:
                best_bits = cand
                best_transform = (False, phase, perm)
            cand ^= mask
            if cand < best_bits:
                best_bits = cand
                best_transform = (True, phase, perm)
    return best_bits, best_transform


def npn_canonical(table: TruthTable) -> Tuple[TruthTable, NpnTransform]:
    """Exact NPN-canonical representative (minimum integer encoding).

    Returns ``(canonical, transform)`` with
    ``apply_transform(table, transform) == canonical``.
    Exhaustive: intended for ``num_vars <= 4``.
    """
    n = table.num_vars
    if n <= 4:
        bits, transform = _canonical_cached(table.bits, n)
        return TruthTable(bits, n), transform
    return _npn_canonical_reference(table)


def _npn_canonical_reference(table: TruthTable) -> Tuple[TruthTable, NpnTransform]:
    """Reference search: per-call transform enumeration over TruthTable ops.

    The only path above 4 variables; at 4 or fewer the tests compare the
    LUT path against it.
    """
    n = table.num_vars
    best_bits = None
    best_transform: NpnTransform = (False, 0, tuple(range(n)))
    for perm in permutations(range(n)):
        permuted = table.permute(perm)
        for phase in range(1 << n):
            candidate = permuted
            for v in range(n):
                if (phase >> v) & 1:
                    candidate = candidate.flip_variable(v)
            for out_neg in (False, True):
                bits = candidate.bits ^ (table_mask(n) if out_neg else 0)
                if best_bits is None or bits < best_bits:
                    best_bits = bits
                    best_transform = (out_neg, phase, tuple(perm))
    return TruthTable(best_bits, n), best_transform


def npn_semicanonical(table: TruthTable) -> Tuple[TruthTable, NpnTransform]:
    """Greedy semi-canonical form for functions of any arity.

    Normalizes output phase (bit 0 forced to 0), flips each input so its
    positive cofactor has at least as many minterms as the negative one, then
    sorts variables by cofactor weight.  Cheap and stable but not a true
    canonical form; use only for hashing/cache keys.
    """
    n = table.num_vars
    work = table
    phase = 0
    weights: List[Tuple[int, int]] = []
    for v in range(n):
        ones_pos = work.cofactor(v, True).count_ones()
        ones_neg = work.cofactor(v, False).count_ones()
        if ones_pos < ones_neg:
            work = work.flip_variable(v)
            phase |= 1 << v
            ones_pos, ones_neg = ones_neg, ones_pos
        weights.append((ones_pos, v))
    order = [v for _w, v in sorted(weights, key=lambda t: (t[0], t[1]))]
    work = work.permute(order)
    # Output phase is normalized last (bit 0 of the final table forced to
    # 0), matching apply_transform's perm → phase → negate ordering.
    out_neg = bool(work.bits & 1)
    if out_neg:
        work = ~work
    # The recorded transform applies permutation first (matching
    # apply_transform), so the phase mask must be re-indexed.
    perm_phase = 0
    for new_var, old_var in enumerate(order):
        if (phase >> old_var) & 1:
            perm_phase |= 1 << new_var
    return work, (out_neg, perm_phase, tuple(order))


def npn_classes_upto(num_vars: int) -> List[TruthTable]:
    """Enumerate all NPN class representatives of *num_vars* variables.

    Exhaustive over all ``2**2**n`` functions; practical for ``n <= 3``
    (``n = 4`` takes minutes — the rewrite library instead canonicalizes
    on demand and caches).
    """
    seen = set()
    out: List[TruthTable] = []
    for bits in range(1 << (1 << num_vars)):
        table = TruthTable(bits, num_vars)
        canon, _t = npn_canonical(table)
        if canon.bits not in seen:
            seen.add(canon.bits)
            out.append(canon)
    return out
