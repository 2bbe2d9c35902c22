"""Unit tests for the core AIG data structure."""

import pytest

from repro.aig.aig import (
    CONST0,
    CONST1,
    Aig,
    lit,
    lit_is_compl,
    lit_node,
    lit_not,
    lit_notcond,
)
from repro.errors import AigError


class TestLiterals:
    def test_lit_roundtrip(self):
        assert lit(5) == 10
        assert lit(5, True) == 11
        assert lit_node(11) == 5
        assert lit_is_compl(11)
        assert not lit_is_compl(10)

    def test_lit_not(self):
        assert lit_not(10) == 11
        assert lit_not(11) == 10

    def test_lit_notcond(self):
        assert lit_notcond(10, True) == 11
        assert lit_notcond(10, False) == 10

    def test_constants(self):
        assert CONST0 == 0
        assert CONST1 == 1
        assert lit_not(CONST0) == CONST1


class TestConstruction:
    def test_empty_network(self):
        aig = Aig()
        assert aig.num_pis == 0
        assert aig.num_pos == 0
        assert aig.num_ands == 0
        assert aig.depth == 0

    def test_add_pi_names(self):
        aig = Aig()
        aig.add_pi("clk_en")
        aig.add_pi()
        assert aig.pi_name(0) == "clk_en"
        assert aig.pi_name(1) == "pi1"

    def test_add_and_creates_node(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        f = aig.add_and(a, b)
        assert aig.num_ands == 1
        assert not lit_is_compl(f)
        assert aig.is_and(lit_node(f))

    def test_strash_dedup(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        f = aig.add_and(a, b)
        g = aig.add_and(b, a)  # commuted
        assert f == g
        assert aig.num_ands == 1

    def test_const_folding(self):
        aig = Aig()
        a = aig.add_pi()
        assert aig.add_and(a, CONST0) == CONST0
        assert aig.add_and(a, CONST1) == a
        assert aig.add_and(a, a) == a
        assert aig.add_and(a, lit_not(a)) == CONST0
        assert aig.num_ands == 0

    def test_or_xor_mux_identities(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        assert aig.add_or(a, CONST0) == a
        assert aig.add_or(a, CONST1) == CONST1
        assert aig.add_xor(a, CONST0) == a
        assert aig.add_xor(a, CONST1) == lit_not(a)
        assert aig.add_mux(CONST1, a, b) == a
        assert aig.add_mux(CONST0, a, b) == b

    def test_multi_input_gates_empty(self):
        aig = Aig()
        assert aig.add_and_multi([]) == CONST1
        assert aig.add_or_multi([]) == CONST0
        assert aig.add_xor_multi([]) == CONST0

    def test_po_registration(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        f = aig.add_and(a, b)
        index = aig.add_po(f, "out")
        assert index == 0
        assert aig.po_name(0) == "out"
        assert aig.pos() == [f]

    def test_set_po_updates_refs(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        f = aig.add_and(a, b)
        aig.add_po(f)
        assert aig.ref_count(lit_node(f)) == 1
        aig.set_po(0, a)
        # f's node became dangling and was collected
        assert aig.num_ands == 0

    def test_invalid_literal_rejected(self):
        aig = Aig()
        with pytest.raises(AigError):
            aig.add_and(2, 1000)


class TestQueries:
    def test_mffc_size_chain(self):
        aig = Aig()
        a, b, c = aig.add_pis(3)
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(n1, c)
        aig.add_po(n2)
        assert aig.mffc_size(lit_node(n2)) == 2
        assert aig.mffc_size(lit_node(n1)) == 1

    def test_mffc_shared_node_excluded(self):
        aig = Aig()
        a, b, c = aig.add_pis(3)
        shared = aig.add_and(a, b)
        n1 = aig.add_and(shared, c)
        n2 = aig.add_and(shared, lit_not(c))
        aig.add_po(n1)
        aig.add_po(n2)
        # shared has two fanouts; it is not in either MFFC
        assert aig.mffc_size(lit_node(n1)) == 1
        assert aig.mffc_size(lit_node(n2)) == 1

    def test_mffc_does_not_change_refcounts(self):
        aig = Aig()
        a, b, c = aig.add_pis(3)
        n2 = aig.add_and(aig.add_and(a, b), c)
        aig.add_po(n2)
        before = [aig.ref_count(n) for n in aig.nodes()]
        aig.mffc_size(lit_node(n2))
        after = [aig.ref_count(n) for n in aig.nodes()]
        assert before == after

    def test_levels_and_depth(self):
        aig = Aig()
        a, b, c, d = aig.add_pis(4)
        f = aig.add_and(aig.add_and(a, b), aig.add_and(c, d))
        aig.add_po(f)
        assert aig.depth == 2
        levels = aig.levels()
        assert levels[lit_node(f)] == 2

    def test_topological_order_properties(self, random_aig_factory):
        aig = random_aig_factory(8, 100, seed=3)
        order = aig.topological_order()
        position = {n: i for i, n in enumerate(order)}
        for n in order:
            for f in aig.fanins(n):
                fn = lit_node(f)
                if aig.is_and(fn):
                    assert position[fn] < position[n]

    def test_fanout_nodes(self):
        aig = Aig()
        a, b, c = aig.add_pis(3)
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(n1, c)
        aig.add_po(n2)
        assert aig.fanout_nodes(lit_node(n1)) == [lit_node(n2)]

    def test_stats(self, small_adder):
        stats = small_adder.stats()
        assert stats["pis"] == 8
        assert stats["pos"] == 5
        assert stats["ands"] > 0
        assert stats["levels"] > 0


class TestRank:
    def test_replacement_ranked_above_the_target_raises_its_fanouts(self):
        aig = Aig()
        a, b, c, d, e, f = aig.add_pis(6)
        x = aig.add_and(a, b)
        deep = aig.add_and(aig.add_and(aig.add_and(c, d), e), f)
        z = aig.add_and(aig.add_and(x, c), d)
        aig.add_po(z)
        aig.add_po(deep)
        assert not aig.depends_on(lit_node(z), lit_node(deep))
        # z's fanin now sits on top of deep, which ranked above x and z:
        # without the raise the guard would stop at z and miss the path.
        aig.replace(lit_node(x), deep)
        aig.check()
        assert aig.depends_on(lit_node(z), lit_node(deep))
        assert aig.depends_on(lit_node(z), lit_node(f))
        assert aig.depends_on(lit_node(z), lit_node(z))
        assert not aig.depends_on(lit_node(deep), lit_node(z))
        assert not aig.depends_on(lit_node(z), lit_node(a))

    def test_merged_target_kept_alive_ranks_above_its_new_fanins(self):
        aig = Aig()
        a, b, c, d, e = aig.add_pis(5)
        old = aig.add_and(a, b)
        t = aig.add_and(old, c)
        h = aig.add_and(aig.add_and(aig.add_and(d, e), a), b)
        existing = aig.add_and(h, c)
        aig.add_po(t)
        aig.add_po(existing)
        aig.protect(t)
        # t patches to (h, c) and merges into existing, but the
        # protection keeps it alive on fanins that ranked above it.
        aig.replace(lit_node(old), h)
        assert aig.is_and(lit_node(t))
        assert aig.depends_on(lit_node(t), lit_node(h))
        aig.unprotect(t)
        assert aig.is_dead(lit_node(t))
        aig.check()

    def test_check_rejects_a_node_not_above_its_fanins(self):
        aig = Aig()
        a, b = aig.add_pis(2)
        n = lit_node(aig.add_and(a, lit_not(b)))
        aig.add_po(lit(n))
        aig.check()
        aig._rank[n] = 0
        with pytest.raises(AigError, match="rank"):
            aig.check()


class TestCleanup:
    def test_cleanup_drops_dangling(self):
        aig = Aig()
        a, b, c = aig.add_pis(3)
        used = aig.add_and(a, b)
        aig.add_and(a, c)  # dangling
        aig.add_po(used)
        compact = aig.cleanup()
        assert compact.num_ands == 1

    def test_cleanup_preserves_function(self, small_mult):
        from repro.aig.simulate import po_tables
        assert po_tables(small_mult.cleanup()) == po_tables(small_mult)

    def test_cleanup_idempotent(self, random_aig_factory):
        aig = random_aig_factory(6, 60, seed=1)
        once = aig.cleanup()
        twice = once.cleanup()
        assert once.num_ands == twice.num_ands
        from repro.aig.simulate import po_tables
        assert po_tables(once) == po_tables(twice)

    def test_cleanup_with_map(self, random_aig_factory):
        aig = random_aig_factory(6, 60, seed=2)
        new, mapping = aig.cleanup_with_map()
        # Every PO-reachable node must be mapped
        for n in aig.topological_order():
            assert n in mapping

    def test_check_passes_on_fresh_network(self, random_aig_factory):
        aig = random_aig_factory(8, 200, seed=5)
        aig.check()
