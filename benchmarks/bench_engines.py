"""Microbenchmarks of the individual substrates and engines.

Not tied to a specific paper table; these track the runtime of the pieces
the SBM flow is built from, so performance regressions are visible.
"""

import random

import pytest

from tests.conftest import make_random_aig


@pytest.fixture(scope="module")
def medium_aig():
    return make_random_aig(10, 400, seed=123)


def test_bench_strash_construction(benchmark):
    benchmark(make_random_aig, 10, 400, 7)


def test_bench_simulation(benchmark, medium_aig):
    from repro.aig.simulate import simulate_words
    rng = random.Random(0x5B5)
    words = [rng.getrandbits(64) for _ in range(medium_aig.num_pis)]
    benchmark(simulate_words, medium_aig, words)


def test_bench_cut_enumeration(benchmark, medium_aig):
    from repro.aig.cuts import enumerate_cuts
    benchmark(enumerate_cuts, medium_aig, 6, 8)


def test_bench_bdd_build(benchmark):
    from repro.bdd.manager import BddManager

    def build():
        mgr = BddManager(14)
        acc = 1
        for i in range(0, 14, 2):
            acc = mgr.apply_and(acc, mgr.apply_xor(mgr.var(i), mgr.var(i + 1)))
        return mgr.num_nodes

    benchmark(build)


def test_bench_sat_equivalence(benchmark, medium_aig):
    from repro.sat.equivalence import check_equivalence
    clone = medium_aig.cleanup()
    benchmark(check_equivalence, medium_aig, clone)


def test_bench_rewrite_pass(benchmark):
    from repro.opt.rewrite import rewrite

    def run():
        aig = make_random_aig(10, 300, seed=9)
        return rewrite(aig)

    benchmark.pedantic(run, iterations=1, rounds=2)


def test_bench_resub_pass(benchmark):
    from repro.opt.resub import resub

    def run():
        aig = make_random_aig(10, 300, seed=9)
        return resub(aig)

    benchmark.pedantic(run, iterations=1, rounds=2)


def test_bench_boolean_difference_pass(benchmark):
    from repro.sbm.boolean_difference import boolean_difference_pass

    def run():
        aig = make_random_aig(10, 300, seed=9)
        return boolean_difference_pass(aig).gain

    benchmark.pedantic(run, iterations=1, rounds=2)


def test_bench_mspf_pass(benchmark):
    from repro.sbm.mspf import mspf_pass

    def run():
        aig = make_random_aig(10, 300, seed=9)
        return mspf_pass(aig).gain

    benchmark.pedantic(run, iterations=1, rounds=2)


def test_bench_lut_mapping(benchmark, medium_aig):
    from repro.mapping.lut import map_luts
    benchmark(map_luts, medium_aig, 6)


def test_bench_tech_mapping(benchmark, medium_aig):
    from repro.asic.techmap import tech_map
    benchmark.pedantic(tech_map, args=(medium_aig,), iterations=1, rounds=2)
