"""Tests for the BDD-based MSPF engine (Section IV-C)."""

from repro.aig.aig import Aig
from repro.sat.equivalence import assert_equivalent, check_equivalence
from repro.sbm.config import MspfConfig
from repro.sbm.mspf import mspf_pass


def test_classic_odc_simplification():
    """out = (a&b) | a == a: the AND node is unobservable when a = 0."""
    aig = Aig()
    a, b = aig.add_pis(2)
    aig.add_po(aig.add_or(aig.add_and(a, b), a))
    reference = aig.cleanup()
    stats = mspf_pass(aig)
    aig.check()
    assert stats.rewrites >= 1
    assert aig.cleanup().num_ands == 0
    assert_equivalent(reference, aig.cleanup())


def test_mux_redundant_branch():
    """mux(s, f, f) never observes s: both branches collapse."""
    aig = Aig()
    s, a, b = aig.add_pis(3)
    f = aig.add_and(a, b)
    # add_and(b, a) would strash to f — build a different structure
    g2 = aig.add_or(aig.add_and(a, b), aig.add_and(a, aig.add_and(a, b)))
    out = aig.add_mux(s, f, g2)
    aig.add_po(out)
    reference = aig.cleanup()
    mspf_pass(aig)
    aig.check()
    assert_equivalent(reference, aig.cleanup())
    assert aig.cleanup().num_ands <= reference.num_ands


def test_function_preserved_on_random(random_aig_factory):
    for seed in range(6):
        aig = random_aig_factory(10, 200, seed=seed)
        reference = aig.cleanup()
        mspf_pass(aig)
        aig.check()
        ok, _ = check_equivalence(reference, aig.cleanup())
        assert ok, seed


def test_finds_gains_on_redundant_logic(random_aig_factory):
    total = 0
    for seed in range(4):
        aig = random_aig_factory(10, 200, seed=seed)
        stats = mspf_pass(aig)
        total += stats.gain
    assert total > 0


def test_memory_limit_bailout(random_aig_factory):
    aig = random_aig_factory(12, 250, seed=9)
    reference = aig.cleanup()
    mspf_pass(aig, MspfConfig(bdd_node_limit=80))
    aig.check()
    assert_equivalent(reference, aig.cleanup())


def test_connectable_fanin_cap(random_aig_factory):
    aig = random_aig_factory(10, 150, seed=2)
    stats = mspf_pass(aig, MspfConfig(max_connectable_fanins=1))
    # cap respected: found count never exceeds nodes processed * cap... we
    # only check it ran and stayed sound
    assert stats.nodes_processed > 0


def test_roots_never_rewritten():
    """A window root is externally observable; MSPF must not touch it even
    when its local MSPF (w.r.t. inner roots) would be non-trivial."""
    aig = Aig()
    a, b = aig.add_pis(2)
    f = aig.add_and(a, b)
    aig.add_po(f)
    aig.add_po(f)  # doubly referenced root
    reference = aig.cleanup()
    mspf_pass(aig)
    assert_equivalent(reference, aig.cleanup())


def test_stats_shape(random_aig_factory):
    aig = random_aig_factory(8, 120, seed=4)
    stats = mspf_pass(aig)
    assert stats.partitions >= 1
    assert stats.mspf_nonzero <= stats.nodes_processed
