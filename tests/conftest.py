"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import random

import pytest

from repro.aig.aig import Aig


def make_random_aig(num_pis: int, num_nodes: int, seed: int,
                    num_pos: int = 8) -> Aig:
    """A random strashed AIG with redundancy (shared fixture logic).

    Randomly ANDs previously created literals with random complementations;
    the result is compacted so every node is PO-reachable.
    """
    rng = random.Random(seed)
    aig = Aig(f"rand{seed}")
    literals = aig.add_pis(num_pis)
    for _ in range(num_nodes):
        a = rng.choice(literals) ^ rng.getrandbits(1)
        b = rng.choice(literals) ^ rng.getrandbits(1)
        literals.append(aig.add_and(a, b))
    for literal in literals[-num_pos:]:
        aig.add_po(literal)
    return aig.cleanup()


def corrupt_stage_entry(cache_dir: str, aig: Aig, config,
                        stage: str = "aig_script") -> None:
    """Complement PO 0 of the effort-1 stage-memo entry of *stage* run on
    *aig*, keeping valid JSON with its key and code salt intact."""
    from repro.campaign.cache import (ResultCache, canonical_stage_config,
                                      network_fingerprint, stage_cache_key)
    key = stage_cache_key(network_fingerprint(aig.cleanup()), stage,
                          canonical_stage_config(config, stage))
    path = ResultCache(cache_dir).path(key, "stage")
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["network"]["outputs"][0] ^= 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)


@pytest.fixture
def random_aig_factory():
    """Factory fixture producing random AIGs."""
    return make_random_aig


@pytest.fixture
def small_adder():
    """A 4-bit ripple adder (17 POs)."""
    from repro.aig.compose import ripple_adder
    aig = Aig("add4")
    a = aig.add_pis(4, "a")
    b = aig.add_pis(4, "b")
    total, carry = ripple_adder(aig, a, b)
    for i, s in enumerate(total):
        aig.add_po(s, f"s{i}")
    aig.add_po(carry, "cout")
    return aig


@pytest.fixture
def small_mult():
    """A 4x4 array multiplier."""
    from repro.aig.compose import multiplier
    aig = Aig("mult4")
    a = aig.add_pis(4, "a")
    b = aig.add_pis(4, "b")
    for i, p in enumerate(multiplier(aig, a, b)):
        aig.add_po(p, f"p{i}")
    return aig
