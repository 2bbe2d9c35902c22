"""Tests for simulation-guided Boolean resubstitution (the fifth engine).

The contracts under test:

* **Pattern store** — deterministic seeding, bounded counterexample
  growth, and hot/reference signature bit-identity.
* **No false negatives** — signature filtering may propose candidates SAT
  later refutes, but any truly-valid resubstitution within the divisor
  budget is always proposed (the hypothesis superset property).
* **Soundness** — the pass preserves the network function (SAT-CEC), on
  random logic and on real EPFL benchmarks.
* **Determinism** — ``jobs=4`` is bit-identical to ``jobs=1``, and the
  hot path is bit-identical to the reference path.
* **Flow integration** — the stage appears exactly when
  ``enable_simresub`` is set, degrades under chaos faults with rollback,
  and its CEGAR loop actually learns counterexample patterns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import lit
from repro.aig.simulate import simulate_words
from repro.bench.registry import get_benchmark
from repro.errors import AigError
from repro.guard.chaos import FaultPlan
from repro.parallel.scheduler import PartitionScheduler
from repro.parallel.shared_pool import SharedProcessPool
from repro.parallel.window_io import CompactAig
from repro.sat.equivalence import assert_equivalent, check_equivalence
from repro.sbm.config import FlowConfig, SimresubConfig
from repro.sbm.flow import sbm_flow
from repro.sbm.simpatterns import PatternStore
from repro.sbm.simresub import iter_candidates, simresub_pass

from tests import reference_paths as ref
from tests.conftest import make_random_aig


def structure(aig):
    """Canonical structural tuple for bit-identity comparison."""
    compact = CompactAig.from_aig(aig)
    return compact.num_pis, tuple(compact.gates), tuple(compact.outputs)


# -- the pattern store --------------------------------------------------------

class TestPatternStore:
    def test_seeding_is_deterministic(self):
        a = PatternStore(8, num_words=2, seed=7)
        b = PatternStore(8, num_words=2, seed=7)
        assert a.pi_words() == b.pi_words()
        assert a.num_patterns == 128 and a.width_words == 2
        assert PatternStore(8, num_words=2, seed=8).pi_words() != a.pi_words()

    def test_counterexample_growth_is_bounded(self):
        store = PatternStore(3, num_words=1, max_patterns=65, seed=1)
        assert not store.full
        assert store.add_pattern([True, False, True])
        assert store.num_patterns == 65
        assert store.width_words == 2          # spilled into a second round
        assert store.mask == (1 << 65) - 1
        # The new pattern landed in the new bit position of each column.
        assert store.pi_words()[0] >> 64 == 1
        assert store.pi_words()[1] >> 64 == 0
        assert store.full
        assert not store.add_pattern([False, False, False])
        assert store.num_patterns == 65

    def test_rejects_malformed_inputs(self):
        with pytest.raises(AigError):
            PatternStore(0)
        with pytest.raises(AigError):
            PatternStore(4, num_words=0)
        store = PatternStore(4, num_words=1)
        with pytest.raises(AigError, match="bits"):
            store.add_pattern([True, False])
        with pytest.raises(AigError, match="PIs"):
            store.signatures(make_random_aig(6, 30, seed=0))

    def test_signatures_hot_matches_reference(self):
        aig = make_random_aig(7, 90, seed=3)
        store = PatternStore(7, num_words=2, seed=5)
        store.add_pattern([True] * 7)          # force a partial last round
        assert store.signatures(aig) == \
            ref.pattern_store_signatures(store, aig)

    def test_signature_bits_are_per_pattern_simulations(self):
        # Bit b of every signature equals a scalar simulation of pattern b.
        aig = make_random_aig(4, 25, seed=9)
        store = PatternStore(4, num_words=1, seed=2)
        values = store.signatures(aig)
        words = store.pi_words()
        for b in (0, 17, 63):
            single = simulate_words(
                aig, [(w >> b) & 1 for w in words])
            for node, word in single.items():
                assert (values[node] >> b) & 1 == word & 1, (b, node)


# -- no false negatives (the superset property) -------------------------------

def _exhaustive_tables(aig):
    """Node-indexed truth tables over all ``2^num_pis`` assignments."""
    n = aig.num_pis
    words = []
    for i in range(n):
        bits = 0
        for b in range(1 << n):
            if (b >> i) & 1:
                bits |= 1 << b
        words.append(bits)
    values = [0] * (aig.max_node + 1)
    for node, word in simulate_words(aig, words).items():
        values[node] = word
    return values, (1 << (1 << n)) - 1


def _valid_resubs(aig, n, divisors, tables, full, mffc):
    """All truly function-preserving candidates, by exhaustive tables,
    mirroring the engine's MFFC gating (the ground truth the signature
    filter must never lose)."""
    from repro.sbm.simresub import _XOR_COST
    tn = tables[n]
    valid = set()
    if tn == 0:
        valid.add(("const", 0))
    elif tn == full:
        valid.add(("const", 1))
    sigs = [tables[d] for d in divisors]
    for d, td in zip(divisors, sigs):
        if td == tn:
            valid.add(("wire", lit(d)))
        elif td ^ full == tn:
            valid.add(("wire", lit(d, True)))
    if mffc < 2:
        return valid
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            for ca in (False, True):
                va = sigs[i] ^ full if ca else sigs[i]
                for cb in (False, True):
                    vb = sigs[j] ^ full if cb else sigs[j]
                    t = va & vb
                    if t == tn:
                        valid.add(("and", lit(divisors[i], ca),
                                   lit(divisors[j], cb), False))
                    elif t ^ full == tn:
                        valid.add(("and", lit(divisors[i], ca),
                                   lit(divisors[j], cb), True))
            if mffc > _XOR_COST:
                x = sigs[i] ^ sigs[j]
                if x == tn:
                    valid.add(("xor", lit(divisors[i]),
                               lit(divisors[j]), False))
                elif x ^ full == tn:
                    valid.add(("xor", lit(divisors[i]),
                               lit(divisors[j]), True))
    return valid


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), num_pis=st.integers(3, 5),
       num_nodes=st.integers(8, 30), subset_seed=st.integers(0, 10 ** 6))
def test_signature_candidates_superset_of_valid_resubs(
        seed, num_pis, num_nodes, subset_seed):
    """Sparse-signature filtering never loses a truly-valid candidate.

    Ground truth: exhaustive truth tables over all ``2^num_pis``
    assignments.  The engine only sees a random *subset* of those
    assignments as patterns; every exhaustively-valid resubstitution
    agrees with the target on any subset, so it must be among the
    candidates :func:`iter_candidates` yields — signature filtering can
    only produce false positives (for SAT to kill), never false
    negatives.
    """
    import random
    aig = make_random_aig(num_pis, num_nodes, seed=seed)
    tables, full = _exhaustive_tables(aig)
    # A sparse pattern subset (at most half the space, possibly tiny).
    rng = random.Random(subset_seed)
    space = 1 << num_pis
    subset = sorted(rng.sample(range(space), rng.randint(1, space // 2)))
    sparse = [sum(((t >> b) & 1) << i for i, b in enumerate(subset))
              for t in tables]
    mask = (1 << len(subset)) - 1
    config = SimresubConfig(max_pair_checks=10 ** 9)
    order = aig.topological_order()
    position = {n: i for i, n in enumerate(order)}
    for n in order:
        if not aig.is_and(n):
            continue
        divisors = list(aig.pis()) + [
            m for m in order[:position[n]] if aig.is_and(m)]
        mffc = aig.mffc_size(n)
        proposed = set(iter_candidates(aig, n, divisors, sparse, mask,
                                       mffc, config))
        valid = _valid_resubs(aig, n, divisors, tables, full, mffc)
        assert valid <= proposed, (n, valid - proposed)


# -- the engine pass ----------------------------------------------------------

class TestSimresubPass:
    def test_function_preserved_on_random(self, random_aig_factory):
        for seed in range(4):
            aig = random_aig_factory(10, 200, seed=seed)
            reference = aig.cleanup()
            stats = simresub_pass(aig)
            aig.check()
            assert stats.partitions >= 1
            ok, _ = check_equivalence(reference, aig.cleanup())
            assert ok, seed

    def test_reduces_redundant_logic(self, random_aig_factory):
        aig = random_aig_factory(8, 150, seed=7)
        before = aig.cleanup().num_ands
        stats = simresub_pass(aig)
        assert stats.rewrites > 0 and stats.gain > 0
        assert aig.cleanup().num_ands < before
        assert stats.candidates_validated >= stats.rewrites

    def test_cegar_learns_counterexample_patterns(self, random_aig_factory):
        # A small pattern prefix makes signature matching easy to fool:
        # SAT refutes candidates and every refutation must land in the
        # store as a new pattern (until it fills).
        aig = random_aig_factory(16, 400, seed=5)
        reference = aig.cleanup()
        config = SimresubConfig(pattern_words=1)
        stats = simresub_pass(aig, config)
        assert stats.candidates_refuted > 0
        assert stats.cex_patterns > 0
        assert stats.cex_patterns <= stats.candidates_refuted
        ok, _ = check_equivalence(reference, aig.cleanup())
        assert ok

    def test_deterministic_across_runs(self, random_aig_factory):
        # Same construction (same node ids) -> identical stats and result.
        a = random_aig_factory(10, 180, seed=11)
        b = random_aig_factory(10, 180, seed=11)
        sa = simresub_pass(a)
        sb = simresub_pass(b)
        assert sa == sb
        assert structure(a.cleanup()) == structure(b.cleanup())

    def test_hot_and_reference_paths_bit_identical(self, random_aig_factory):
        a = random_aig_factory(8, 150, seed=9)
        b = random_aig_factory(8, 150, seed=9)
        hot_stats = simresub_pass(a)
        with ref.frozen_signatures():
            ref_stats = simresub_pass(b)
        assert hot_stats == ref_stats
        assert structure(a.cleanup()) == structure(b.cleanup())

    @pytest.mark.parametrize("bench", ["router", "i2c"])
    def test_jobs4_bit_identical_and_cec_on_epfl(self, bench):
        serial = get_benchmark(bench)
        parallel = get_benchmark(bench)
        stats_1 = simresub_pass(serial)
        with SharedProcessPool(4) as pool:
            stats_4 = simresub_pass(
                parallel, scheduler=PartitionScheduler(pool=pool))
        assert structure(serial.cleanup()) == structure(parallel.cleanup())
        assert (stats_1.rewrites, stats_1.gain) == \
            (stats_4.rewrites, stats_4.gain)
        ok, cex = check_equivalence(get_benchmark(bench), serial.cleanup())
        assert ok, cex


# -- flow integration ---------------------------------------------------------

class TestFlowIntegration:
    def test_stage_runs_by_default_and_toggles_off(self, random_aig_factory):
        aig = random_aig_factory(8, 120, seed=5)
        on, stats_on = sbm_flow(aig, FlowConfig(iterations=1))
        assert any("simresub" in r.name for r in stats_on.records)
        off, stats_off = sbm_flow(
            aig, FlowConfig(iterations=1, enable_simresub=False))
        assert not any("simresub" in r.name for r in stats_off.records)
        assert_equivalent(aig, on)
        assert_equivalent(aig, off)

    def test_chaos_corrupting_the_stage_is_rolled_back(
            self, random_aig_factory):
        # The stage sits at spec index 4; a forced corrupt-result fault on
        # its site must be caught by the guard and rolled back.
        aig = random_aig_factory(8, 150, seed=24)
        plan = FaultPlan(seed=1, rate=0.0,
                         forced={"stage:4:simresub": "corrupt-result"})
        config = FlowConfig(iterations=1, verify_each_step=True, chaos=plan)
        out, stats = sbm_flow(aig, config)
        guard = stats.guard
        assert ("stage:4:simresub", "corrupt-result") in guard.faults
        [event] = [e for e in guard.events if e.kind == "rolled_back"]
        assert event.stage == "simresub"
        assert guard.rollbacks == 1
        assert_equivalent(aig, out)

    def test_window_chaos_in_stage_scope_stays_equivalent(
            self, random_aig_factory):
        # Random window-level faults drawn inside the simresub scope (and
        # every other engine's) must never change the final function.
        aig = random_aig_factory(8, 150, seed=31)
        config = FlowConfig(iterations=1, chaos=FaultPlan(seed=13, rate=0.3),
                            verify_each_step=True)
        out, _stats = sbm_flow(aig, config)
        assert_equivalent(aig, out)
