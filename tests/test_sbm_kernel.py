"""Tests for heterogeneous elimination/kerneling (Section IV-B)."""

from repro.partition.partitioner import PartitionConfig
from repro.sat.equivalence import assert_equivalent, check_equivalence
from repro.sbm.config import KernelConfig
from repro.sbm.hetero_kernel import hetero_kernel_pass, homogeneous_kernel_pass


def test_function_preserved_on_random(random_aig_factory):
    for seed in range(4):
        aig = random_aig_factory(10, 180, seed=seed)
        reference = aig.cleanup()
        hetero_kernel_pass(aig)
        aig.check()
        ok, _ = check_equivalence(reference, aig.cleanup())
        assert ok, seed


def test_reduces_shareable_logic(random_aig_factory):
    improved = 0
    for seed in range(4):
        aig = random_aig_factory(10, 180, seed=seed)
        before = aig.cleanup().num_ands
        hetero_kernel_pass(aig)
        if aig.cleanup().num_ands < before:
            improved += 1
    assert improved >= 2


def test_never_grows(random_aig_factory):
    """Move contract: splices are only accepted at gain >= 0."""
    for seed in range(3):
        aig = random_aig_factory(10, 150, seed=seed + 20)
        before = aig.cleanup().num_ands
        hetero_kernel_pass(aig)
        assert aig.cleanup().num_ands <= before


def test_threshold_wins_recorded(random_aig_factory):
    aig = random_aig_factory(10, 250, seed=1)
    stats = hetero_kernel_pass(aig)
    if stats.partitions_improved:
        assert sum(stats.threshold_wins.values()) == stats.partitions_improved
        for threshold in stats.threshold_wins:
            assert threshold in KernelConfig().eliminate_thresholds


def test_heterogeneous_at_least_as_good_as_single_threshold(random_aig_factory):
    """The Section IV-B claim: per-partition threshold choice beats any one
    homogeneous threshold (here: is never worse than the worst one)."""
    results = {}
    for mode in ("hetero", -1, 50):
        aig = random_aig_factory(10, 220, seed=5)
        if mode == "hetero":
            hetero_kernel_pass(aig)
        else:
            homogeneous_kernel_pass(aig, mode)
        results[mode] = aig.cleanup().num_ands
    assert results["hetero"] <= max(results[-1], results[50])


def test_custom_partition_config(random_aig_factory):
    aig = random_aig_factory(8, 120, seed=6)
    reference = aig.cleanup()
    config = KernelConfig(partition=PartitionConfig(max_levels=4,
                                                    max_size=30,
                                                    max_leaves=16))
    stats = hetero_kernel_pass(aig, config)
    assert stats.partitions > 1
    assert_equivalent(reference, aig.cleanup())
