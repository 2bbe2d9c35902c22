"""Combinational equivalence checking (CEC): the simulate-then-prove core.

Every experiment in the reproduction verifies its optimized network against
the original — the paper's "all benchmarks are verified with an industrial
formal equivalence checking flow" (Section V-C).  Small networks are checked
exhaustively by simulation.  Larger ones first meet 256 random patterns,
then a SAT sweep of their miter, after Simulation-Guided Boolean
Resubstitution (Lee et al.): simulation proposes equal node pairs, and SAT
answers only small, conflict-limited questions about them.  Proven pairs
are merged bottom-up, so each later proof stops at the merged frontier, and
one SAT call settles the PO pairs the merges leave apart.

The simulate half of that is shared with the rest of :mod:`repro.sat`:
one round-major pattern draw, :func:`draw_rounds`, feeds CEC's random
rung, SAT sweeping's fingerprints and the redundancy screen, and one
miscompare scan, :func:`first_miscompare`, serves the random rung and the
check of the SAT model.  The prove half is
:func:`repro.sat.cnf.sat_equal`, the one two-polarity SAT equality check.
The stage guard (:mod:`repro.guard.stage_guard`) is one
:func:`find_counterexample` call.

Miscompares are reported as a structured :class:`Counterexample` (the PI
assignment plus the first miscomparing PO), and :func:`assert_equivalent`
raises :class:`repro.errors.EquivalenceError` carrying that evidence — the
guard layer attaches it to the run report instead of aborting the flow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.aig.aig import CONST0, Aig
from repro.aig.simprogram import pack_rounds, sim_program, wide_mask
from repro.aig.simulate import WORD_MASK, po_tables
from repro.errors import EquivalenceError, SatError
from repro.sat.cnf import AigCnf, _copy_into, sat_equal

#: Networks with at most this many inputs are compared exhaustively.
EXHAUSTIVE_LIMIT = 12
#: Seed and 64-bit rounds of the random rung ahead of the SAT sweep.
CEC_SEED = 0xCEC
CEC_ROUNDS = 4
#: Random patterns that sign every miter node for the SAT sweep.
SWEEP_PATTERNS = 1024
#: Seed of those patterns, fixed so every counterexample repeats run to run.
SWEEP_SEED = 0x5EE9
#: Conflict budget of one polarity of a sweep check; a check that runs out
#: leaves the node unmerged.
SWEEP_CONFLICTS = 100


@dataclass
class Counterexample:
    """Evidence that two networks differ: an input pattern and where."""

    inputs: List[bool]     #: PI assignment, in PI order
    po_index: int          #: first miscomparing primary output
    po_name: str = ""

    def format(self) -> str:
        """Render as ``PO 'name' (#i) differs under PIs 0101...``."""
        bits = "".join("1" if b else "0" for b in self.inputs)
        label = f"{self.po_name!r} (#{self.po_index})" if self.po_name \
            else f"#{self.po_index}"
        return f"PO {label} differs under PI assignment {bits}"

    def to_dict(self) -> dict:
        """JSON-safe representation for the run report."""
        return {"inputs": [bool(b) for b in self.inputs],
                "po_index": self.po_index, "po_name": self.po_name}


def _sweep_miter(aig_a: Aig, aig_b: Aig) -> Optional[List[bool]]:
    """PI assignment under which the networks differ, or ``None``.

    Both networks are strashed into one AIG over shared PIs, simulated
    once, and rebuilt bottom-up into a reduced AIG.  Each node gets at most
    one conflict-limited check against the first node of its signature
    class and is merged onto it when proven, so later checks stop at the
    merged frontier.  PO pairs left on different reduced literals go to
    one unlimited SAT call, whose model is the answer.
    """
    miter = Aig()
    pis = [miter.add_pi() for _ in range(aig_a.num_pis)]
    outs_a = _copy_into(aig_a, miter, pis)
    outs_b = _copy_into(aig_b, miter, pis)
    if outs_a == outs_b:
        return None
    rng = random.Random(SWEEP_SEED)
    mask = (1 << SWEEP_PATTERNS) - 1
    values = sim_program(miter).run(
        [rng.getrandbits(SWEEP_PATTERNS) for _ in pis], mask)
    reduced = Aig()
    cnf = AigCnf(reduced)
    # miter node -> reduced literal of the same function
    rlits = [CONST0] + [reduced.add_pi() for _ in pis]
    # phase-normalized signature -> first reduced literal that has it
    firsts = {0: CONST0}
    # Nodes are numbered fanin-first: the miter is only ever appended to.
    for node in range(1, miter.max_node + 1):
        if node > len(pis):
            f0, f1 = miter.fanins(node)
            rlits.append(reduced.add_and(rlits[f0 >> 1] ^ (f0 & 1),
                                         rlits[f1 >> 1] ^ (f1 & 1)))
        phase = values[node] & 1
        normal = rlits[node] ^ phase
        first = firsts.setdefault(values[node] ^ (mask if phase else 0),
                                  normal)
        if first != normal and sat_equal(
                cnf.solver, cnf.sat_literal(normal), cnf.sat_literal(first),
                SWEEP_CONFLICTS):
            rlits[node] = first ^ phase
    diffs = []
    for a, b in zip(outs_a, outs_b):
        x, y = rlits[a >> 1] ^ (a & 1), rlits[b >> 1] ^ (b & 1)
        if x != y:
            diffs.append(reduced.add_xor(x, y))
    if not diffs:
        return None
    if not cnf.solver.solve((cnf.sat_literal(reduced.add_or_multi(diffs)),)):
        return None
    return cnf.extract_pi_assignment()


def draw_rounds(rng: random.Random, num_pis: int,
                rounds: int) -> List[List[int]]:
    """*rounds* rounds of one 64-bit word per PI, drawn round-major from
    *rng*: the patterns of CEC's random rung, SAT sweeping's fingerprints
    and the redundancy screen.

    :func:`repro.aig.simprogram.pack_rounds` lays them out for one wide
    simulation pass, round *r* in bits ``[64*r, 64*r + 64)``.
    """
    return [[rng.getrandbits(64) for _ in range(num_pis)]
            for _ in range(rounds)]


def first_miscompare(aig_a: Aig, aig_b: Aig, rounds: List[List[int]]
                     ) -> Optional[Counterexample]:
    """The first miscompare of two networks under *rounds*, or ``None``.

    *rounds* holds one 64-bit word per PI and round, as
    :func:`draw_rounds` returns them.  Both networks are simulated in one
    wide pass, and the scan visits (round, PO, lowest bit) in that order,
    so the counterexample is a pure function of the networks and the
    patterns.
    """
    packed = pack_rounds(rounds)
    mask = wide_mask(len(rounds))
    prog_a = sim_program(aig_a)
    prog_b = sim_program(aig_b)
    wa = prog_a.po_words(prog_a.run(packed, mask), mask)
    wb = prog_b.po_words(prog_b.run(packed, mask), mask)
    for r, words in enumerate(rounds):
        shift = 64 * r
        for po, (x, y) in enumerate(zip(wa, wb)):
            diff = ((x >> shift) ^ (y >> shift)) & WORD_MASK
            if diff:
                bit = (diff & -diff).bit_length() - 1
                inputs = [bool((w >> bit) & 1) for w in words]
                return Counterexample(inputs, po, aig_a.po_name(po))
    return None


def find_counterexample(aig_a: Aig, aig_b: Aig) -> Optional[Counterexample]:
    """Return a :class:`Counterexample` if the networks differ, else ``None``.

    Networks with at most :data:`EXHAUSTIVE_LIMIT` inputs are compared by
    complete simulation.  Larger ones meet 256 random patterns, then a SAT
    sweep: both networks are strashed into one miter, proven-equal nodes
    are merged bottom-up, and one SAT call decides the PO pairs left
    apart.  A SAT model that separates no PO raises :class:`SatError`.
    """
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        raise ValueError("equivalence requires matching interfaces")
    if aig_a.num_pis <= EXHAUSTIVE_LIMIT:
        for po, (x, y) in enumerate(zip(po_tables(aig_a), po_tables(aig_b))):
            diff = x ^ y
            if diff:
                row = (diff & -diff).bit_length() - 1
                inputs = [bool((row >> i) & 1) for i in range(aig_a.num_pis)]
                return Counterexample(inputs, po, aig_a.po_name(po))
        return None
    # Random simulation first: a cheap refutation path.
    cex = first_miscompare(aig_a, aig_b, draw_rounds(
        random.Random(CEC_SEED), aig_a.num_pis, CEC_ROUNDS))
    if cex is not None:
        return cex
    inputs = _sweep_miter(aig_a, aig_b)
    if inputs is None:
        return None
    # The model, replicated across a word, is one round of the scan.
    cex = first_miscompare(aig_a, aig_b,
                           [[WORD_MASK if bit else 0 for bit in inputs]])
    if cex is None:
        raise SatError("SAT counterexample distinguishes no primary output")
    return cex


def check_equivalence(aig_a: Aig, aig_b: Aig
                      ) -> Tuple[bool, Optional[List[bool]]]:
    """Decide whether two networks are combinationally equivalent.

    Returns ``(True, None)`` or ``(False, counterexample_pi_assignment)``.
    Thin compatibility wrapper over :func:`find_counterexample`.
    """
    cex = find_counterexample(aig_a, aig_b)
    if cex is None:
        return True, None
    return False, cex.inputs


def assert_equivalent(aig_a: Aig, aig_b: Aig) -> None:
    """Raise :class:`EquivalenceError` with a counterexample if networks differ."""
    cex = find_counterexample(aig_a, aig_b)
    if cex is not None:
        raise EquivalenceError(
            f"networks {aig_a.name!r} and {aig_b.name!r} differ: "
            f"{cex.format()}",
            cex=cex.inputs, po_index=cex.po_index, po_name=cex.po_name)
