"""Tests for the BDD-based MSPF engine (Section IV-C)."""

import copy

from repro.aig import checksum
from repro.aig.aig import Aig, lit_node
from repro.parallel.window_io import whole_network_window
from repro.sat.equivalence import assert_equivalent, check_equivalence
from repro.sbm import mspf
from repro.sbm.config import MspfConfig
from repro.sbm.mspf import mspf_pass
from tests import reference_paths as ref
from tests.conftest import make_random_aig


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
    config = MspfConfig(max_connectable_fanins=1)
    stats = mspf_pass(aig, config)
    assert stats.nodes_processed > 0
    # Candidates are searched only under a non-zero MSPF, at most cap each.
    assert (stats.connectable_found
            <= stats.mspf_nonzero * config.max_connectable_fanins)


def test_a_fanin_lost_to_the_node_limit_is_a_bailout():
    """A partial window build leaves nodes without a BDD; a node whose
    fanout cone reads one is skipped and counted, like any other node
    the limit stops."""
    aig = Aig()
    a, b, c = aig.add_pis(3)
    x = aig.add_and(a, b)
    w = aig.add_and(a, c)
    aig.add_po(aig.add_or(aig.add_and(x, c), w))
    window = whole_network_window(aig)
    manager, all_bdds, z_var = mspf._window_bdds(aig, window,
                                                 list(window.nodes),
                                                 MspfConfig())
    # w is outside x's fanout cone but feeds the root that x reaches.
    del all_bdds[lit_node(w)]
    stats = mspf.MspfStats()
    assert mspf._compute_mspf(aig, window, manager, all_bdds, z_var,
                              lit_node(x), MspfConfig(), stats) is None
    assert stats.bdd_bailouts == 1


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


def test_matches_the_frozen_engine_until_it_bails():
    """The engine against the frozen one (``tests/reference_paths.py``),
    which ANDs every candidate with the care set and re-ANDs every window
    node per node judged.  Where the frozen engine never bails, the
    connectability walk and the cone-scoped rebuild must change nothing:
    same network, same counters.  Where it does bail, its dead ANDs filled
    the node limit, so the engine must bail less in total."""
    frozen_bailouts = bailouts = bailing_cases = 0
    for pis, nodes in ((8, 120), (12, 400), (16, 600)):
        for seed in range(6):
            base = make_random_aig(pis, nodes, seed=seed)
            for limit in (300_000, 3_000, 600, 150, 40):
                config = MspfConfig(bdd_node_limit=limit)
                frozen, live = copy.deepcopy(base), copy.deepcopy(base)
                frozen_stats, stats = mspf.MspfStats(), mspf.MspfStats()
                ref.optimize_partition(frozen, whole_network_window(frozen),
                                       config, frozen_stats)
                mspf.optimize_partition(live, whole_network_window(live),
                                        config, stats)
                case = (pis, nodes, seed, limit)
                if frozen_stats.bdd_bailouts == 0:
                    assert checksum(live) == checksum(frozen), case
                    assert stats == frozen_stats, case
                else:
                    bailing_cases += 1
                    frozen_bailouts += frozen_stats.bdd_bailouts
                    bailouts += stats.bdd_bailouts
    assert bailing_cases > 0
    assert bailouts < frozen_bailouts
