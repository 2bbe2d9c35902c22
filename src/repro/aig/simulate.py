"""Bit-parallel simulation of AIGs.

Two flavours are provided:

* :func:`simulate_words` — 64-bit-word random/directed pattern simulation,
  returning one word per live node.
* :func:`simulate_complete` — complete truth-table simulation for networks with
  few inputs (the "small windows of logic (≈ 15 inputs)" regime of Section II),
  returning one Python integer truth table per node/PO.

Both are backed by the compiled :class:`repro.aig.simprogram.SimProgram`
(flat fanin arrays + cached topological order, recompiled only when the
network's edit generation changes).  The test suite keeps the original
interpreted walks as frozen references and proves the compiled path
bit-identical to them.  Multi-round callers should use
:func:`repro.aig.simprogram.simulate_wide`, which evaluates W 64-bit rounds
in a single pass over W×64-bit integers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.aig.aig import Aig, lit_is_compl, lit_node
from repro.aig.simprogram import sim_program
from repro.errors import AigError
from repro.tt.truthtable import variable_table

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


def simulate_words(aig: Aig, pi_words: Sequence[int]) -> Dict[int, int]:
    """Simulate one 64-bit pattern word per primary input.

    Parameters
    ----------
    aig:
        The network to simulate.
    pi_words:
        One 64-bit integer per PI; bit *i* of each word forms pattern *i*.

    Returns
    -------
    dict mapping every live node id to its 64-bit output word.
    """
    return _run_by_node(aig, pi_words, WORD_MASK)


def _run_by_node(aig: Aig, pi_words: Sequence[int],
                 mask: int) -> Dict[int, int]:
    """Run the compiled program; map every live node id to its value."""
    program = sim_program(aig)
    values = program.run(pi_words, mask)
    out: Dict[int, int] = {0: 0}
    for node in program.pi_nodes:
        out[node] = values[node]
    for op in program.ops:
        n = op[0]
        out[n] = values[n]
    return out


def po_words(aig: Aig, values) -> List[int]:
    """Extract PO output words from a node-value dictionary (or list)."""
    out = []
    for po in aig.pos():
        v = values[lit_node(po)]
        out.append(v ^ WORD_MASK if lit_is_compl(po) else v)
    return out


def simulate_complete(aig: Aig) -> Dict[int, int]:
    """Complete truth-table simulation (all ``2**num_pis`` patterns).

    Each node's value is a Python integer with ``2**num_pis`` bits, bit *i*
    holding the node output under the *i*-th input assignment (PI 0 is the
    least significant input variable).  Practical up to ~20 inputs.
    """
    k = aig.num_pis
    if k > 24:
        raise AigError(f"complete simulation infeasible for {k} inputs")
    nbits = 1 << k
    patterns = [variable_table(i, k) for i in range(k)]
    return _run_by_node(aig, patterns, (1 << nbits) - 1)


def po_tables(aig: Aig, values: Optional[Dict[int, int]] = None) -> List[int]:
    """Complete truth tables of all POs (convenience over simulate_complete)."""
    if values is None:
        values = simulate_complete(aig)
    nbits = 1 << aig.num_pis
    mask = (1 << nbits) - 1
    out = []
    for po in aig.pos():
        v = values[lit_node(po)]
        out.append((v ^ mask) if lit_is_compl(po) else v)
    return out
