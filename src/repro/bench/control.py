"""Control-dominated benchmark generators (arbiter, priority, voter, ...).

The EPFL control benchmarks are distributed as AIGER files; offline, we
regenerate their *functions* structurally:

* ``arbiter`` — a round-robin arbiter: requests plus a rotating priority
  mask produce one-hot grants and an "any grant" flag (the EPFL arbiter has
  256 inputs / 129 outputs; ours matches that profile at width 128).
* ``priority`` — a priority encoder (128 requests → 7-bit index + valid).
* ``voter`` — majority-of-N (N = 1001 in the suite).
* ``router`` — longest-prefix-match routing decision logic.
* ``i2c``/``mem_ctrl``/``cavlc`` — flattened controller next-state/output
  logic.  The originals are RTL dumps under NDA-free but unreproducible
  exact netlists; we synthesize *seeded, deterministic* control functions
  with the same I/O profile and comparable gate-count character, which
  exercises the same optimization code paths (documented in DESIGN.md).
"""

from __future__ import annotations

import random
from typing import List

from repro.aig.aig import CONST0, Aig, lit_not
from repro.aig.compose import (
    constant_word,
    equal,
    less_than,
    mux_word,
    popcount,
    ripple_adder,
)
from repro.errors import BenchmarkError


def arbiter(width: int = 128) -> Aig:
    """Round-robin arbiter: ``2*width`` inputs, ``width + 1`` outputs.

    Inputs are *width* request lines and a *width*-bit one-hot-ish priority
    mask; outputs are one-hot grants plus an "any grant" flag.  The grant
    logic is the classic double priority chain: grant the first request at
    or above the masked position, else the first request overall.
    """
    aig = Aig(f"arbiter{width}")
    req = aig.add_pis(width, "req")
    mask = aig.add_pis(width, "mask")
    # Chain 1: requests at positions where the rotating mask has passed.
    masked = [aig.add_and(r, m) for r, m in zip(req, mask)]
    grant_masked = _priority_chain(aig, masked)
    any_masked = aig.add_or_multi(masked)
    # Chain 2: unmasked fallback.
    grant_all = _priority_chain(aig, req)
    grants = mux_word(aig, any_masked, grant_masked, grant_all)
    for i, g in enumerate(grants):
        aig.add_po(g, f"grant{i}")
    aig.add_po(aig.add_or_multi(list(req)), "any")
    return aig


def _priority_chain(aig: Aig, requests: List[int]) -> List[int]:
    """One-hot "first request wins" chain."""
    grants = []
    blocked = CONST0
    for r in requests:
        grants.append(aig.add_and(r, lit_not(blocked)))
        blocked = aig.add_or(blocked, r)
    return grants


def priority_encoder(width: int = 128) -> Aig:
    """Priority encoder: *width* requests → index bits + valid flag.

    Matches the EPFL ``priority`` profile (128 inputs / 8 outputs).
    """
    aig = Aig(f"priority{width}")
    req = aig.add_pis(width, "req")
    index_bits = max(1, (width - 1).bit_length())
    grants = _priority_chain(aig, req)
    for b in range(index_bits):
        terms = [g for i, g in enumerate(grants) if (i >> b) & 1]
        aig.add_po(aig.add_or_multi(terms), f"idx{b}")
    aig.add_po(aig.add_or_multi(list(req)), "valid")
    return aig


def voter(width: int = 1001) -> Aig:
    """Majority voter: 1 when more than half of the inputs are 1."""
    if width % 2 == 0:
        raise BenchmarkError("voter width must be odd")
    aig = Aig(f"voter{width}")
    votes = aig.add_pis(width, "v")
    count = popcount(aig, votes)
    threshold = constant_word(width // 2, len(count))
    aig.add_po(_greater(aig, count, threshold), "maj")
    return aig


def _greater(aig: Aig, a: List[int], b: List[int]) -> int:
    """a > b (unsigned)."""
    return less_than(aig, b, a)


def router(num_entries: int = 8, prefix_bits: int = 6,
           port_bits: int = 4) -> Aig:
    """Longest-prefix-match router decision logic.

    A destination address is compared against *num_entries* table entries
    (address + mask-length, baked in pseudo-randomly but deterministically);
    the matching entry with the longest prefix selects an output port.
    Profile chosen to approximate the EPFL ``router`` (60 in / 30 out):
    inputs = address + per-entry enables, outputs = port one-hot + index.
    """
    rng = random.Random(0x9041)
    aig = Aig(f"router{num_entries}x{prefix_bits}")
    addr = aig.add_pis(prefix_bits * 2, "addr")
    enables = aig.add_pis(num_entries, "en")
    matches: List[int] = []
    lengths: List[int] = []
    for e in range(num_entries):
        plen = rng.randint(1, prefix_bits * 2)
        pattern = rng.getrandbits(plen)
        bits = [lit_not(addr[i]) if not (pattern >> i) & 1 else addr[i]
                for i in range(plen)]
        matches.append(aig.add_and(aig.add_and_multi(bits), enables[e]))
        lengths.append(plen)
    # Longest prefix wins: sort entries by length descending, priority chain.
    order = sorted(range(num_entries), key=lambda e: -lengths[e])
    winners = _priority_chain(aig, [matches[e] for e in order])
    ports = []
    for _ in order:
        ports.append(rng.randrange(1 << port_bits))
    for b in range(port_bits):
        aig.add_po(aig.add_or_multi(
            [w for w, p in zip(winners, ports) if (p >> b) & 1]), f"port{b}")
    for i, w in enumerate(winners):
        aig.add_po(w, f"hit{i}")
    aig.add_po(aig.add_or_multi(matches), "match")
    return aig


def control_function(name: str, num_inputs: int, num_outputs: int,
                     num_terms: int = 24, seed: int = 7) -> Aig:
    """Seeded synthetic control logic with a given I/O profile.

    Each output is a deterministic pseudo-random AND-OR expression over the
    inputs plus a few shared sub-expressions (giving the kernels and shared
    divisors real controllers exhibit).  Stands in for the flattened
    ``i2c`` / ``mem_ctrl`` / ``cavlc`` controller dumps.
    """
    rng = random.Random(seed)
    aig = Aig(name)
    inputs = aig.add_pis(num_inputs, "x")
    # Shared sub-expressions: the "state decoding" layer.
    shared: List[int] = []
    for _ in range(max(4, num_inputs // 4)):
        k = rng.randint(2, 4)
        lits = [inputs[rng.randrange(num_inputs)] ^ rng.getrandbits(1)
                for _ in range(k)]
        shared.append(aig.add_and_multi(lits))
    pool = inputs + shared
    for o in range(num_outputs):
        terms = []
        for _ in range(rng.randint(2, max(3, num_terms // 4))):
            k = rng.randint(2, 5)
            lits = [pool[rng.randrange(len(pool))] ^ rng.getrandbits(1)
                    for _ in range(k)]
            terms.append(aig.add_and_multi(lits))
        aig.add_po(aig.add_or_multi(terms) ^ rng.getrandbits(1), f"y{o}")
    return aig


def i2c_like(scale: float = 1.0, seed: int = 0x12C) -> Aig:
    """Flattened I2C-controller-style logic (EPFL profile 147 in / 142 out)."""
    n_in = max(8, int(147 * scale))
    n_out = max(8, int(142 * scale))
    return control_function(f"i2c[{scale}]", n_in, n_out, num_terms=16,
                            seed=seed)


def mem_ctrl_like(scale: float = 1.0, seed: int = 0x3E3) -> Aig:
    """Memory-controller-style logic (EPFL profile 1204 in / 1231 out)."""
    n_in = max(16, int(1204 * scale))
    n_out = max(16, int(1231 * scale))
    return control_function(f"mem_ctrl[{scale}]", n_in, n_out, num_terms=28,
                            seed=seed)


def cavlc_like(seed: int = 0xCA7) -> Aig:
    """CAVLC-encoder-style logic (EPFL profile 10 in / 11 out).

    Dense 10-input control: outputs mix comparisons and table lookups of the
    input word, giving the reconvergent structure the real CAVLC table has.
    """
    aig = Aig("cavlc")
    xs = aig.add_pis(10, "x")
    rng = random.Random(seed)
    lo, hi = xs[:5], xs[5:]
    # Arithmetic spine: sum and comparison of the two halves.
    total, carry = ripple_adder(aig, lo, hi)
    lt = less_than(aig, lo, hi)
    eq = equal(aig, lo, hi)
    pool = total + [carry, lt, eq] + xs
    for o in range(11):
        terms = []
        for _ in range(rng.randint(3, 6)):
            k = rng.randint(2, 4)
            lits = [pool[rng.randrange(len(pool))] ^ rng.getrandbits(1)
                    for _ in range(k)]
            terms.append(aig.add_and_multi(lits))
        aig.add_po(aig.add_or_multi(terms), f"y{o}")
    return aig


def max_unit(width: int = 128, operands: int = 4) -> Aig:
    """EPFL ``max``: the maximum of several words plus its index.

    The native profile (512 in / 130 out) corresponds to four 128-bit
    operands with a 128-bit value output and a 2-bit argmax.
    """
    aig = Aig(f"max{operands}x{width}")
    words = [aig.add_pis(width, f"w{i}_") for i in range(operands)]
    best = words[0]
    index_bits = max(1, (operands - 1).bit_length())
    best_index = constant_word(0, index_bits)
    for i in range(1, operands):
        is_bigger = less_than(aig, best, words[i])
        best = mux_word(aig, is_bigger, words[i], best)
        best_index = mux_word(aig, is_bigger, constant_word(i, index_bits),
                              best_index)
    for i, b in enumerate(best):
        aig.add_po(b, f"max{i}")
    for i, b in enumerate(best_index):
        aig.add_po(b, f"idx{i}")
    return aig
