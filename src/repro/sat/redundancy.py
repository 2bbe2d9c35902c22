"""SAT-based redundancy removal.

Reimplements the flow step the paper cites as [9] (Debnath et al., DATE'18):
an AND-gate fanin is *redundant* when forcing it to constant 1 (a stuck-at-1
fault on the edge) is undetectable at every primary output; the gate then
collapses to its other fanin.  Candidates are screened by random
simulation, with patterns from the shared round-major draw of
:mod:`repro.sat.equivalence`, and proven by
:func:`~repro.sat.equivalence.find_counterexample`, after which the edge is
removed in place.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.aig.aig import Aig, lit_is_compl, lit_node
from repro.aig.simprogram import pack_rounds, sim_program, wide_mask
from repro.sat.equivalence import draw_rounds, find_counterexample

#: Seed and 64-bit rounds of the simulation screen; each outer pass draws
#: fresh rounds from the one generator.
SCREEN_SEED = 0x9ED
SCREEN_ROUNDS = 4


def remove_redundancies(aig: Aig, max_checks: Optional[int] = None) -> int:
    """Remove SAT-proven redundant AND fanin edges in place.

    Returns the number of edges removed.  Each proof is a full
    network-equivalence check, so *max_checks* bounds runtime; random
    simulation discards the vast majority of non-redundant candidates first.
    """
    rng = random.Random(SCREEN_SEED)
    mask = wide_mask(SCREEN_ROUNDS)
    removed = 0
    checks = 0
    progress = True
    while progress:
        progress = False
        baseline = aig.cleanup()
        # All rounds in one W x 64-bit pass: a clone is refuted iff any
        # round's PO words miscompare with the baseline's.
        packed = pack_rounds(draw_rounds(rng, aig.num_pis, SCREEN_ROUNDS))
        program = sim_program(baseline)
        golden = program.po_words(program.run(packed, mask), mask)
        for node in list(baseline.topological_order()):
            for keep_index in (0, 1):
                if max_checks is not None and checks >= max_checks:
                    return removed
                candidate = _try_edge(baseline, node, keep_index,
                                      packed, golden, mask)
                if candidate is None:
                    continue
                checks += 1
                if find_counterexample(baseline, candidate) is None:
                    baseline = candidate
                    removed += 1
                    progress = True
                    break
            if progress:
                break
        if progress:
            _replace_network(aig, baseline)
    return removed


def _try_edge(aig: Aig, node: int, keep_index: int, packed: List[int],
              golden: List[int], mask: int) -> Optional[Aig]:
    """Clone *aig* with one fanin of *node* forced to 1; None if sim refutes.

    *packed* are the wide PI words and *golden* the baseline's wide PO
    words under them, both over *mask*.
    """
    if not aig.is_and(node):
        return None
    clone, mapping = aig.cleanup_with_map()
    mapped = mapping.get(node)
    if mapped is None or lit_is_compl(mapped):
        return None
    clone_node = lit_node(mapped)
    if not clone.is_and(clone_node):
        return None
    kept = clone.fanins(clone_node)[keep_index]
    clone.replace(clone_node, kept)
    program = sim_program(clone)
    if program.po_words(program.run(packed, mask), mask) != golden:
        return None
    return clone.cleanup()


def _replace_network(target: Aig, source: Aig) -> None:
    """Overwrite *target*'s contents with *source* (same interface)."""
    fresh = source.cleanup()
    target.__dict__.update(fresh.__dict__)
