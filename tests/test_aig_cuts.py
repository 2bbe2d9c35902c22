"""Tests for K-feasible cut enumeration."""

from repro.aig.aig import Aig, lit_node
from repro.aig.cuts import Cut, cut_cone_size, cut_volume_refs, enumerate_cuts


def test_every_node_has_trivial_cut(random_aig_factory):
    aig = random_aig_factory(6, 50, seed=0)
    cuts = enumerate_cuts(aig, k=4)
    for n in aig.ands():
        assert any(c.leaves == (n,) for c in cuts[n])


def test_cut_sizes_bounded(random_aig_factory):
    aig = random_aig_factory(8, 100, seed=1)
    for k in (2, 4, 6):
        cuts = enumerate_cuts(aig, k=k)
        for n in aig.ands():
            for cut in cuts[n]:
                assert len(cut.leaves) <= max(k, 1)


def test_cut_limit_respected(random_aig_factory):
    aig = random_aig_factory(8, 100, seed=2)
    cuts = enumerate_cuts(aig, k=4, cut_limit=3)
    for n in aig.ands():
        assert len(cuts[n]) <= 4  # 3 + trivial


def test_cuts_are_real_cuts(random_aig_factory):
    """Every path from a PI to the node must cross a cut leaf."""
    aig = random_aig_factory(6, 60, seed=3)
    cuts = enumerate_cuts(aig, k=4)
    for n in list(aig.ands())[:15]:
        for cut in cuts[n]:
            if cut.leaves == (n,):
                continue
            leaves = set(cut.leaves)
            # removing the leaves disconnects n from the PIs
            stack = [n]
            seen = set()
            while stack:
                m = stack.pop()
                if m in seen or m in leaves:
                    continue
                seen.add(m)
                assert not aig.is_pi(m), (n, cut.leaves)
                if aig.is_and(m):
                    stack.extend(lit_node(f) for f in aig.fanins(m))


def test_cut_tables_match_simulation(random_aig_factory):
    from repro.opt.refactor import window_function
    aig = random_aig_factory(6, 60, seed=4)
    cuts = enumerate_cuts(aig, k=4, compute_tables=True)
    checked = 0
    for n in list(aig.ands()):
        for cut in cuts[n]:
            if len(cut.leaves) < 2 or cut.table is None:
                continue
            expected = window_function(aig, n, list(cut.leaves))
            assert cut.table == expected.bits, (n, cut.leaves)
            checked += 1
        if checked > 40:
            break
    assert checked > 10


def test_cut_cone_size():
    aig = Aig()
    a, b, c, d = aig.add_pis(4)
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(c, d)
    top = aig.add_and(n1, n2)
    aig.add_po(top)
    cut = Cut(tuple(sorted(aig.pis())))
    assert cut_cone_size(aig, lit_node(top), cut) == 3


def test_cut_volume_refs_counts_reclaimable():
    aig = Aig()
    a, b, c, d = aig.add_pis(4)
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(c, d)
    top = aig.add_and(n1, n2)
    aig.add_po(top)
    aig.add_po(n1)  # n1 is externally referenced -> survives a rewrite
    cut = Cut(tuple(sorted(aig.pis())))
    assert cut_volume_refs(aig, lit_node(top), cut) == 2  # top and n2


def test_dominated_cuts_filtered():
    aig = Aig()
    a, b = aig.add_pis(2)
    n1 = aig.add_and(a, b)
    top = aig.add_and(n1, a)  # note: reconvergence
    aig.add_po(top)
    cuts = enumerate_cuts(aig, k=4)
    tn = lit_node(top)
    leaf_sets = [set(c.leaves) for c in cuts[tn]]
    for i, s1 in enumerate(leaf_sets):
        for j, s2 in enumerate(leaf_sets):
            if i != j:
                assert not (s1 < s2), (s1, s2)


def _cut_lists(cuts, nodes):
    return {n: [(c.leaves, c.table) for c in cuts[n]] for n in nodes}


def test_rooted_enumeration_equals_whole_network(random_aig_factory):
    """A node's cut list depends on its fan-in cone alone: enumerating
    from a few roots gives every node it returns the whole network's list,
    and returns exactly the roots' fan-in cones."""
    import random

    from repro.aig.traversal import transitive_fanin
    rng = random.Random(5)
    for seed in range(6):
        aig = random_aig_factory(8, 150, seed=20 + seed)
        ands = list(aig.ands())
        for k, limit, tables in ((4, 6, True), (6, 8, False), (3, 4, True)):
            full = enumerate_cuts(aig, k=k, cut_limit=limit,
                                  compute_tables=tables)
            roots = rng.sample(ands, 5)
            rooted = enumerate_cuts(aig, k=k, cut_limit=limit,
                                    compute_tables=tables, roots=roots)
            assert set(rooted) == ({0} | set(aig.pis())
                                   | transitive_fanin(aig, roots))
            assert _cut_lists(rooted, rooted) == _cut_lists(full, rooted)


def test_window_rewrite_enumerates_only_its_cone(monkeypatch):
    """Rewriting one low window of a multi-window network enumerates the
    cuts of that window's AND cone, not of the whole network."""
    import importlib

    from repro.aig.traversal import transitive_fanin
    from repro.partition.partitioner import PartitionConfig, partition_network
    from tests.conftest import make_random_aig
    # The module, not the function that ``repro.opt`` exports by its name.
    rewrite_module = importlib.import_module("repro.opt.rewrite")
    aig = make_random_aig(12, 500, seed=42)
    windows = partition_network(aig, PartitionConfig(
        max_levels=4, max_size=40, max_leaves=16))
    assert len(windows) > 5
    window = windows[0]
    cone = transitive_fanin(aig, window.nodes, include_pis=False)
    ands = aig.num_ands
    enumerated = []
    original = rewrite_module.enumerate_cuts

    def spying(*args, **kwargs):
        cuts = original(*args, **kwargs)
        enumerated.append(set(cuts) - {0} - set(aig.pis()))
        return cuts

    monkeypatch.setattr(rewrite_module, "enumerate_cuts", spying)
    rewrite_module.rewrite(aig, node_filter=set(window.nodes))
    assert enumerated == [cone]
    assert 2 * len(cone) < ands
