"""Property-based tests (hypothesis) for truth tables, ISOP, and NPN.

The differential tests at the end hold the truth-table kernel (projection
masks, ISOP on shrinking cofactors, mask-swap cut-table expansion) to the
frozen formulations in :mod:`tests.reference_paths`.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cuts import _expand_table
from repro.tt.isop import _isop_rec, cover_table, isop, isop_table
from repro.tt.npn import apply_transform, invert_transform, npn_canonical, npn_semicanonical
from repro.tt.truthtable import TruthTable, swap_adjacent, table_mask, variable_table

from tests import reference_paths as ref


def tables(max_vars=5):
    return st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda n: st.tuples(st.integers(min_value=0,
                                        max_value=table_mask(n)),
                            st.just(n)))


@given(tables())
def test_double_complement_is_identity(spec):
    bits, n = spec
    t = TruthTable(bits, n)
    assert ~~t == t


@given(tables())
def test_shannon_expansion(spec):
    """f = x·f_x + !x·f_!x for every variable."""
    bits, n = spec
    t = TruthTable(bits, n)
    for v in range(n):
        x = TruthTable.variable(v, n)
        recon = (x & t.cofactor(v, True)) | (~x & t.cofactor(v, False))
        assert recon == t


@given(tables())
def test_quantifier_ordering(spec):
    """forall(f) ⊆ f ⊆ exists(f)."""
    bits, n = spec
    t = TruthTable(bits, n)
    for v in range(n):
        assert (t.forall(v).bits & ~t.bits) == 0
        assert (t.bits & ~t.exists(v).bits) == 0


@given(tables())
def test_boolean_difference_symmetric_in_cofactors(spec):
    bits, n = spec
    t = TruthTable(bits, n)
    for v in range(n):
        diff = t.boolean_difference(v)
        assert diff == (t.cofactor(v, True) ^ t.cofactor(v, False))
        # f does not depend on v iff the difference is empty
        assert diff.is_const0() == (not t.depends_on(v))


@given(tables())
def test_isop_covers_exactly(spec):
    bits, n = spec
    t = TruthTable(bits, n)
    assert cover_table(isop_table(t), n) == t.bits


@given(tables(max_vars=4), st.integers(min_value=0))
def test_isop_interval_respected(spec, dc_seed):
    bits, n = spec
    dc = dc_seed % (table_mask(n) + 1)
    lower = TruthTable(bits & ~dc, n)
    upper = TruthTable(bits | dc, n)
    cover = cover_table(isop(lower, upper), n)
    assert lower.bits & ~cover == 0
    assert cover & ~upper.bits & table_mask(n) == 0


@given(tables(max_vars=4))
def test_npn_canonical_round_trip(spec):
    bits, n = spec
    t = TruthTable(bits, n)
    canon, transform = npn_canonical(t)
    assert apply_transform(t, transform) == canon
    inverse = invert_transform(transform, n)
    assert apply_transform(canon, inverse) == t


@given(tables(max_vars=5))
def test_semicanonical_round_trip(spec):
    bits, n = spec
    t = TruthTable(bits, n)
    semi, transform = npn_semicanonical(t)
    assert apply_transform(t, transform) == semi
    assert (semi.bits & 1) == 0


@given(tables(max_vars=4))
def test_swap_is_involution(spec):
    bits, n = spec
    t = TruthTable(bits, n)
    if n >= 2:
        assert t.swap_variables(0, n - 1).swap_variables(0, n - 1) == t


@given(tables(max_vars=4))
def test_shrink_expand_round_trip(spec):
    bits, n = spec
    t = TruthTable(bits, n)
    small, support = t.shrink_to_support()
    # re-expanding over the support positions reproduces t
    if support == list(range(len(support))):
        assert small.expand(n) == t or t.support() == support


# -- differential tests against the frozen truth-table kernel -----------------

def _assert_isop_matches_reference(lower, upper, n):
    """Same cube list, in order, and same cover table as the frozen
    full-width recursion."""
    expected, expected_cover = ref._isop_rec(lower, upper, n, n)
    assert isop(TruthTable(lower, n), TruthTable(upper, n)) == expected
    cubes = []
    assert _isop_rec(lower, upper, n, 0, 0, cubes) == expected_cover
    assert cubes == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0, max_value=table_mask(n)))))
def test_isop_matches_reference(spec):
    n, bits = spec
    _assert_isop_matches_reference(bits, bits, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0, max_value=table_mask(n)),
                        st.integers(min_value=0, max_value=table_mask(n)))))
def test_isop_interval_matches_reference(spec):
    """lower != upper: the don't-cares reach every branch of the recursion."""
    n, bits, dc = spec
    _assert_isop_matches_reference(bits & ~dc, bits | dc, n)


def _embed(bits, support, n):
    """Table over *n* variables of the function *bits* of len(support)
    variables, whose variable j is ``x_support[j]``."""
    out = 0
    for row in range(1 << n):
        idx = 0
        for j, var in enumerate(support):
            idx |= ((row >> var) & 1) << j
        out |= ((bits >> idx) & 1) << row
    return out


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=12, max_value=16).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1,
                 max_size=4, unique=True),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1))))
def test_isop_few_vars_in_wide_table_matches_reference(spec):
    """Few-variable functions in 12-16 variables: most recursion steps
    shrink past variables neither bound depends on."""
    n, support, bits, dc = spec
    k = len(support)
    bits &= table_mask(k)
    dc &= table_mask(k)
    lower = _embed(bits & ~dc, support, n)
    upper = _embed(bits | dc, support, n)
    _assert_isop_matches_reference(lower, upper, n)


def test_variable_table_matches_reference_exhaustive():
    for n in range(17):
        for i in range(n):
            assert variable_table(i, n) == ref.variable_table(i, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=0, max_value=n - 2),
                        st.integers(min_value=0, max_value=table_mask(n)))))
def test_swap_adjacent_matches_swap_variables(spec):
    n, index, bits = spec
    t = TruthTable(bits, n)
    assert swap_adjacent(bits, index, n) == t.swap_variables(index, index + 1).bits


def test_expand_table_matches_reference_on_every_subset():
    """Every from ⊆ to pair with up to 6 leaves, 8 random tables each."""
    rng = random.Random(17)
    for m in range(7):
        # leaf ids unlike the positions they take
        to_leaves = tuple(sorted(rng.sample(range(3, 40), m)))
        nbits = 1 << m
        for k in range(m + 1):
            for from_leaves in itertools.combinations(to_leaves, k):
                for _ in range(8):
                    table = rng.getrandbits(1 << k)
                    assert (_expand_table(table, from_leaves, to_leaves, nbits)
                            == ref._expand_table(table, from_leaves, to_leaves,
                                                 nbits))
