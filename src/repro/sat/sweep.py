"""SAT sweeping: merging functionally equivalent nodes.

Part of the SBM flow's final stage, "SAT-based sweeping and redundancy
removal as in [9]" (Section V-A).  Random simulation partitions nodes into
candidate equivalence classes (equal fingerprints, up to complement): the
patterns come from the shared round-major draw of
:mod:`repro.sat.equivalence`, and one wide pass signs every node.  Each
member of a class is then proved once against the class's first member
by :func:`repro.sat.cnf.prove_equivalent`, the shared two-polarity check
with no conflict limit, and a proven member is merged onto it with
:meth:`Aig.replace`.  Classes are never split: a refutation's
counterexample is discarded, so members that differ from the
representative but equal each other stay unmerged.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.aig.aig import Aig, lit
from repro.aig.simprogram import pack_rounds, sim_program, wide_mask
from repro.sat.cnf import AigCnf, prove_equivalent
from repro.sat.equivalence import draw_rounds

#: Seed and 64-bit rounds of the fingerprint patterns.
SIM_SEED = 20190311
SIM_ROUNDS = 8


def sat_sweep(aig: Aig, max_proofs: Optional[int] = None) -> int:
    """Merge SAT-proven equivalent (or antivalent) nodes in place.

    Returns the number of merges performed.  ``max_proofs`` caps SAT calls
    for runtime control (the scalability lever of the paper's engines).
    """
    if aig.num_pis == 0:
        return 0
    # Fingerprint every node in one wide pass.  Classes are keyed by the
    # phase-normalized fingerprint, so antivalent nodes share a class and
    # the order of the rounds in the wide word cannot change a class.
    full = wide_mask(SIM_ROUNDS)
    packed = pack_rounds(draw_rounds(random.Random(SIM_SEED), aig.num_pis,
                                     SIM_ROUNDS))
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
