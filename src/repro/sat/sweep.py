"""SAT sweeping: merging functionally equivalent nodes.

Part of the SBM flow's final stage, "SAT-based sweeping and redundancy
removal as in [9]" (Section V-A).  Random simulation partitions nodes into
candidate equivalence classes (equal fingerprints, up to complement).  Each
member of a class is then proved once, by SAT, against the class's first
member, and a proven member is merged onto it with :meth:`Aig.replace`.
Classes are never split: a refutation's counterexample is discarded, so
members that differ from the representative but equal each other stay
unmerged.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.aig.aig import Aig, lit
from repro.aig.simprogram import WORD_MASK, sim_program, wide_mask
from repro.sat.cnf import AigCnf, prove_equivalent


def sat_sweep(aig: Aig, num_sim_rounds: int = 8,
              max_proofs: Optional[int] = None,
              rng: Optional[random.Random] = None) -> int:
    """Merge SAT-proven equivalent (or antivalent) nodes in place.

    Returns the number of merges performed.  ``max_proofs`` caps SAT calls
    for runtime control (the scalability lever of the paper's engines).
    """
    rng = rng or random.Random(20190311)
    if aig.num_pis == 0:
        return 0
    # Fingerprint every node; bit-complement-normalized so that antivalent
    # nodes land in the same class.
    patterns: List[List[int]] = [
        [rng.getrandbits(64) for _ in range(aig.num_pis)]
        for _ in range(num_sim_rounds)
    ]
    # All rounds in one compiled pass.  Round 0 is packed into the HIGH 64
    # bits, so a node's wide simulation value is its fingerprint
    # ``sig = (sig << 64) | round_word`` over the rounds, bit for bit.
    full = wide_mask(num_sim_rounds)
    packed = [0] * aig.num_pis
    for r, words in enumerate(patterns):
        shift = 64 * (num_sim_rounds - 1 - r)
        for i in range(aig.num_pis):
            packed[i] |= (words[i] & WORD_MASK) << shift
    signatures = sim_program(aig).run(packed, full)

    classes: Dict[int, List[int]] = {}
    order = aig.topological_order()
    for node in [0] + aig.pis() + order:
        sig = signatures[node]
        norm = sig ^ full if sig & 1 else sig
        classes.setdefault(norm, []).append(node)

    cnf = AigCnf(aig)
    merges = 0
    proofs = 0
    for norm in list(classes):
        members = classes[norm]
        if len(members) < 2:
            continue
        representative = members[0]
        rep_sig = signatures[representative]
        for node in members[1:]:
            if aig.is_dead(node) or aig.is_dead(representative):
                continue
            if node == representative:
                continue
            if max_proofs is not None and proofs >= max_proofs:
                return merges
            complemented = signatures[node] != rep_sig
            target_lit = lit(representative, complemented)
            proofs += 1
            equivalent, _cex = prove_equivalent(cnf, lit(node), target_lit)
            if equivalent and not aig.is_pi(node):
                aig.replace(node, target_lit)
                merges += 1
    return merges
