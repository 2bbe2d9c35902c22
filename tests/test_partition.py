"""Tests for the partitioning engine and window splicing."""

from repro.aig.aig import Aig, lit_node
from repro.aig.traversal import node_level_map
from repro.partition.partitioner import (
    PartitionConfig,
    extract_window_aig,
    partition_network,
    refresh_window,
    splice_window,
)
from repro.partition.window import collect_window
from repro.sat.equivalence import assert_equivalent


def test_every_node_in_exactly_one_window(random_aig_factory):
    aig = random_aig_factory(10, 200, seed=0)
    windows = partition_network(aig, PartitionConfig(max_levels=5,
                                                     max_size=40,
                                                     max_leaves=20))
    assigned = [n for w in windows for n in w.nodes]
    assert sorted(assigned) == sorted(aig.topological_order())
    assert len(set(assigned)) == len(assigned)


def test_window_limits_respected(random_aig_factory):
    aig = random_aig_factory(10, 300, seed=1)
    config = PartitionConfig(max_levels=6, max_size=30, max_leaves=18)
    for w in partition_network(aig, config):
        assert w.size <= config.max_size
        lo, hi = w.level_span
        assert hi - lo < config.max_levels


def test_window_leaves_feed_members(random_aig_factory):
    aig = random_aig_factory(8, 150, seed=2)
    for w in partition_network(aig, PartitionConfig(max_levels=8,
                                                    max_size=50,
                                                    max_leaves=30)):
        members = set(w.nodes)
        for n in w.nodes:
            for f in aig.fanins(n):
                fn = lit_node(f)
                assert fn in members or fn in set(w.leaves) or fn == 0


def test_roots_cover_external_references(random_aig_factory):
    aig = random_aig_factory(8, 150, seed=3)
    po_nodes = {lit_node(po) for po in aig.pos()}
    for w in partition_network(aig, PartitionConfig(max_levels=8,
                                                    max_size=50,
                                                    max_leaves=30)):
        members = set(w.nodes)
        roots = set(w.roots)
        for n in w.nodes:
            external = (n in po_nodes
                        or any(t not in members for t in aig.fanout_nodes(n)))
            if external:
                assert n in roots


def test_extract_and_identity_splice(random_aig_factory):
    aig = random_aig_factory(8, 120, seed=4)
    reference = aig.cleanup()
    windows = partition_network(aig, PartitionConfig(max_levels=6,
                                                     max_size=40,
                                                     max_leaves=24))
    for w in windows:
        sub, _mapping, root_to_po = extract_window_aig(aig, w)
        assert sub.num_pis == len(w.leaves)
        assert sub.num_pos == len(w.roots)
        delta = splice_window(aig, w, sub)
        assert delta == 0
    aig.check()
    assert_equivalent(reference, aig.cleanup())


def test_splice_optimized_window(random_aig_factory):
    from repro.opt.scripts import quick_optimize
    aig = random_aig_factory(8, 150, seed=5)
    reference = aig.cleanup()
    windows = partition_network(aig, PartitionConfig(max_levels=10,
                                                     max_size=80,
                                                     max_leaves=24))
    for w in windows:
        sub, _m, _r = extract_window_aig(aig, w)
        optimized = quick_optimize(sub)
        if optimized.num_ands < sub.num_ands:
            splice_window(aig, w, optimized)
            break
    aig.check()
    assert_equivalent(reference, aig.cleanup())


def test_refresh_window_after_edits(random_aig_factory):
    aig = random_aig_factory(8, 100, seed=6)
    windows = partition_network(aig, PartitionConfig(max_levels=8,
                                                     max_size=50,
                                                     max_leaves=24))
    w = max(windows, key=lambda win: win.size)
    # kill a member by replacing it with one of its fanins
    victim = w.nodes[-1]
    aig.replace(victim, aig.fanins(victim)[0])
    refreshed = refresh_window(aig, w)
    assert refreshed is not None
    assert victim not in refreshed.nodes
    assert all(aig.is_and(n) for n in refreshed.nodes)


class TestNodeWindows:
    def test_pivot_last_in_cone(self, random_aig_factory):
        aig = random_aig_factory(8, 100, seed=7)
        levels = node_level_map(aig)
        for n in list(aig.ands())[:30]:
            w = collect_window(aig, n, levels=levels)
            assert w is not None
            assert w.cone[-1] == n

    def test_divisors_exclude_pivot_tfo(self, random_aig_factory):
        from repro.aig.traversal import transitive_fanout
        aig = random_aig_factory(8, 100, seed=8)
        for n in list(aig.ands())[:20]:
            w = collect_window(aig, n, max_divisors=50)
            tfo = transitive_fanout(aig, [n])
            for d in w.divisors:
                assert d not in tfo or d == n

    def test_leaf_bound(self, random_aig_factory):
        aig = random_aig_factory(10, 150, seed=9)
        for n in list(aig.ands())[:20]:
            w = collect_window(aig, n, max_leaves=6)
            assert len(w.leaves) <= 8  # small slack for the final expansion

    def test_divisor_search_never_walks_fanout_cone(self, monkeypatch):
        # One fanout_nodes call per leaf, cone node and divisor at most: no
        # walk of the pivot's transitive fanout.  With no room for divisors
        # (max_divisors=0, as refactor asks) there is no call at all.
        from repro.bench.registry import get_benchmark
        aig = get_benchmark("router")
        levels = node_level_map(aig)
        calls = []
        original = Aig.fanout_nodes

        def counting(self, node):
            calls.append(node)
            return original(self, node)

        monkeypatch.setattr(Aig, "fanout_nodes", counting)
        pivots = list(aig.ands())
        assert len(pivots) > 50
        for pivot in pivots:
            del calls[:]
            w = collect_window(aig, pivot, max_divisors=60, levels=levels)
            assert len(calls) <= len(w.leaves) + len(w.cone) \
                + len(w.divisors), pivot
            del calls[:]
            collect_window(aig, pivot, max_divisors=0, levels=levels)
            assert calls == []

    def test_windows_match_the_frozen_fanout_walk(self, random_aig_factory):
        # Same leaves, cone and divisor order as the frozen rule, which
        # walks each pivot's transitive fanout, on fresh networks and after
        # rewrite and resub passes have left stale fanout entries behind.
        import copy
        from repro.opt.resub import resub
        from repro.opt.rewrite import rewrite
        from tests import reference_paths as ref
        compared = 0
        for seed in range(6):
            aig = random_aig_factory(10, 160, seed=100 + seed)
            for edit in (None, rewrite, resub):
                if edit is not None:
                    edit(aig)
                frozen = copy.deepcopy(aig)
                levels = node_level_map(aig)
                for max_divisors in (0, 8, 60, 150):
                    for pivot in list(aig.ands()):
                        for max_leaves in (6, 10):
                            got = collect_window(aig, pivot, max_leaves,
                                                 max_divisors, levels)
                            want = ref.collect_window(frozen, pivot,
                                                      max_leaves,
                                                      max_divisors, levels)
                            assert got == want
                            compared += 1
        assert compared > 5000

    def test_pi_pivot_rejected(self):
        aig = Aig()
        a = aig.add_pi()
        aig.add_po(a)
        assert collect_window(aig, lit_node(a)) is None
