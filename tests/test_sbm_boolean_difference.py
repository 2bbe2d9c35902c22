"""Tests for the Boolean-difference resubstitution engine (Section III)."""

from repro.aig.aig import Aig, lit_not
from repro.partition.partitioner import PartitionConfig
from repro.sat.equivalence import assert_equivalent, check_equivalence
from repro.sbm.boolean_difference import boolean_difference_pass
from repro.sbm.config import BooleanDifferenceConfig


def fig1_style_network():
    """f equals g xor (x1·x5) but is built expansively (see experiments.fig1)."""
    aig = Aig()
    x1, x2, x3, x4, x5 = aig.add_pis(5)
    g = aig.add_or(aig.add_and(x1, x2), aig.add_and(x3, aig.add_or(x4, x5)))
    t1 = aig.add_and(x1, aig.add_and(x2, lit_not(aig.add_and(x1, x5))))
    t2 = aig.add_and(x3, aig.add_and(aig.add_or(x4, x5),
                                     lit_not(aig.add_and(x1, x5))))
    t3 = aig.add_and(aig.add_and(x1, x5), lit_not(g))
    aig.add_po(aig.add_or(aig.add_or(t1, t2), t3), "f")
    aig.add_po(g, "g")
    return aig.cleanup()


def test_finds_difference_rewrite_on_fig1_network():
    aig = fig1_style_network()
    reference = aig.cleanup()
    before = aig.num_ands
    stats = boolean_difference_pass(aig)
    aig.check()
    assert stats.rewrites >= 1
    assert aig.cleanup().num_ands < before
    assert_equivalent(reference, aig.cleanup())


def test_function_preserved_on_random(random_aig_factory):
    for seed in range(5):
        aig = random_aig_factory(10, 200, seed=seed)
        reference = aig.cleanup()
        boolean_difference_pass(aig)
        aig.check()
        ok, _ = check_equivalence(reference, aig.cleanup())
        assert ok, seed


def test_stats_accounting(random_aig_factory):
    aig = random_aig_factory(10, 150, seed=7)
    stats = boolean_difference_pass(aig)
    assert stats.partitions >= 1
    assert stats.pairs_tried > 0
    filtered = (stats.pairs_filtered_support + stats.pairs_filtered_inclusion
                + stats.pairs_filtered_bdd_size + stats.pairs_filtered_saving)
    assert filtered > 0  # the filters of Section III-B/C fire


def test_bdd_size_filter_blocks_large_differences(random_aig_factory):
    aig = random_aig_factory(10, 200, seed=3)
    tight = BooleanDifferenceConfig(bdd_size_limit=1)
    stats = boolean_difference_pass(aig, tight)
    # With a size-1 limit almost everything is filtered
    assert stats.pairs_filtered_bdd_size + stats.pairs_filtered_saving > 0


def test_monolithic_partition(random_aig_factory):
    """Whole-network run (the Section III-B claim configuration)."""
    aig = random_aig_factory(10, 150, seed=4)
    reference = aig.cleanup()
    config = BooleanDifferenceConfig(
        partition=PartitionConfig(max_levels=10 ** 6, max_size=10 ** 6,
                                  max_leaves=10 ** 6))
    stats = boolean_difference_pass(aig, config)
    assert stats.partitions == 1
    assert_equivalent(reference, aig.cleanup())


def test_memory_limit_bails_out_not_crashes(random_aig_factory):
    aig = random_aig_factory(12, 250, seed=5)
    reference = aig.cleanup()
    config = BooleanDifferenceConfig(bdd_node_limit=60)
    boolean_difference_pass(aig, config)
    aig.check()
    assert_equivalent(reference, aig.cleanup())


def test_xor_cost_affects_acceptance(random_aig_factory):
    """A prohibitive xor_cost must suppress rewrites (saving filter).

    The two runs diverge structurally after the first accepted rewrite, so
    raw filter counters are not comparable between them — the invariant is
    that the prohibitive cost rejects candidates (the saving filter fires)
    and accepts at most the xor-free subset of what the cheap run accepts.
    """
    aig1 = random_aig_factory(10, 200, seed=6)
    aig2 = aig1.cleanup()
    cheap = boolean_difference_pass(
        aig1, BooleanDifferenceConfig(xor_cost=0))
    expensive = boolean_difference_pass(
        aig2, BooleanDifferenceConfig(xor_cost=10 ** 6))
    assert expensive.pairs_filtered_saving > 0
    assert expensive.rewrites <= cheap.rewrites
    assert expensive.rewrites == 0 or expensive.gain <= cheap.gain
