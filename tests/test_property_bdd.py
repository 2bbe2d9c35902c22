"""Property-based tests (hypothesis) for the BDD manager."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.tt.truthtable import TruthTable, table_mask

from tests.test_bdd import build_from_table


def specs(max_vars=5, tables=2):
    return st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda n: st.tuples(
            *[st.integers(min_value=0, max_value=table_mask(n))] * tables,
            st.just(n)))


@given(specs())
def test_boolean_algebra_laws(spec):
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    # De Morgan
    assert mgr.negate(mgr.apply_and(f, g)) == \
        mgr.apply_or(mgr.negate(f), mgr.negate(g))
    # absorption
    assert mgr.apply_or(f, mgr.apply_and(f, g)) == f
    # xor via and/or
    left = mgr.apply_xor(f, g)
    right = mgr.apply_or(mgr.apply_and(f, mgr.negate(g)),
                         mgr.apply_and(mgr.negate(f), g))
    assert left == right


@given(specs())
def test_canonicity_strong(spec):
    """Equal functions are the same node — the property the paper's MSPF
    engine exploits for cheap global queries."""
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    assert (f == g) == (bits1 == bits2)


@given(specs())
def test_ite_equals_mux_semantics(spec):
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    s = mgr.var(0)
    ite = mgr.ite(s, f, g)
    expect = (TruthTable.variable(0, n) & TruthTable(bits1, n)) | \
             (~TruthTable.variable(0, n) & TruthTable(bits2, n))
    assert mgr.to_truth_bits(ite, n) == expect.bits


@given(specs(max_vars=4))
def test_boolean_difference_via_bdds(spec):
    """∂f/∂g = f ⊕ g is 0 exactly when f and g are equivalent (Section III-A)."""
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    diff = mgr.apply_xor(f, g)
    assert (diff == FALSE) == (bits1 == bits2)
    # rebuilding f as diff ⊕ g is the identity of Section III-A
    assert mgr.apply_xor(diff, g) == f


@given(specs(max_vars=4))
def test_satcount_additivity(spec):
    bits1, bits2, n = spec
    mgr = BddManager(n)
    f = build_from_table(mgr, TruthTable(bits1, n))
    g = build_from_table(mgr, TruthTable(bits2, n))
    # inclusion-exclusion
    union = mgr.satcount(mgr.apply_or(f, g), n)
    inter = mgr.satcount(mgr.apply_and(f, g), n)
    assert union + inter == mgr.satcount(f, n) + mgr.satcount(g, n)


@given(specs(max_vars=4))
def test_cofactor_composition(spec):
    bits1, _b2, n = spec
    mgr = BddManager(n)
    t = TruthTable(bits1, n)
    f = build_from_table(mgr, t)
    for v in range(n):
        lo = mgr.cofactor(f, v, False)
        hi = mgr.cofactor(f, v, True)
        assert mgr.ite(mgr.var(v), hi, lo) == f


@given(specs(tables=3))
def test_agree_matches_the_and_compare(spec):
    """agree(f, g, c) is the test MSPF's ANDs made, ``f ∧ c == g ∧ c``
    (against ``¬g`` when complemented), and it builds no node."""
    bits_f, bits_g, bits_c, n = spec
    mgr = BddManager(n)
    f, g, c = (build_from_table(mgr, TruthTable(bits, n))
               for bits in (bits_f, bits_g, bits_c))
    operands = (f, g, c, FALSE, TRUE)
    for x in operands:
        for y in operands:
            for care in operands:
                before = mgr.num_nodes
                same = mgr.agree(x, y, care)
                opposite = mgr.agree(x, y, care, complement=True)
                assert mgr.num_nodes == before
                assert same == (mgr.apply_and(x, care)
                                == mgr.apply_and(y, care))
                assert opposite == (mgr.apply_and(x, care)
                                    == mgr.apply_and(mgr.negate(y), care))
