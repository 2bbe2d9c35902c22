"""Combinational equivalence checking (CEC).

Every experiment in the reproduction verifies its optimized network against
the original — the paper's "all benchmarks are verified with an industrial
formal equivalence checking flow" (Section V-C).  Small networks are checked
exhaustively by simulation.  Larger ones first meet 256 random patterns,
then a SAT sweep of their miter, after Simulation-Guided Boolean
Resubstitution (Lee et al.): simulation proposes equal node pairs, and SAT
answers only small, conflict-limited questions about them.  Proven pairs
are merged bottom-up, so each later proof stops at the merged frontier, and
one SAT call settles the PO pairs the merges leave apart.

Miscompares are reported as a structured :class:`Counterexample` (the PI
assignment plus the first miscomparing PO), and :func:`assert_equivalent`
raises :class:`repro.errors.EquivalenceError` carrying that evidence — the
guard layer (:mod:`repro.guard.stage_guard`) attaches it to the run report
instead of aborting the flow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.aig.aig import CONST0, Aig
from repro.aig.simprogram import pack_rounds, sim_program, wide_mask
from repro.aig.simulate import WORD_MASK, po_tables, po_words, simulate_words
from repro.errors import EquivalenceError, SatError
from repro.sat.cnf import AigCnf, _copy_into

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


def _first_miscomparing_po(aig_a: Aig, aig_b: Aig,
                           inputs: List[bool]) -> int:
    """Index of the first PO that differs under *inputs*.

    Raises :class:`SatError` when no PO differs: the SAT model that produced
    *inputs* is then wrong, and reporting it would roll back a good stage.
    """
    words = [(1 << 64) - 1 if bit else 0 for bit in inputs]
    wa = po_words(aig_a, simulate_words(aig_a, words))
    wb = po_words(aig_b, simulate_words(aig_b, words))
    for po, (x, y) in enumerate(zip(wa, wb)):
        if (x ^ y) & 1:
            return po
    raise SatError("SAT counterexample distinguishes no primary output")


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
        if first != normal and _proven_equal(cnf, normal, first):
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


def _proven_equal(cnf: AigCnf, x: int, y: int) -> bool:
    """Whether two AIG literals are proven equal within the conflict limit;
    ``False`` also when a polarity is refuted or undecided."""
    sx, sy = cnf.sat_literal(x), cnf.sat_literal(y)
    return all(cnf.solver.solve_limited(query, SWEEP_CONFLICTS) is False
               for query in ((sx, -sy), (-sx, sy)))


def random_counterexample(aig_a: Aig, aig_b: Aig, seed: int,
                          rounds: int) -> Optional[Counterexample]:
    """A miscompare under *rounds* × 64 seeded random patterns, or ``None``.

    PI words are drawn round-major from ``random.Random(seed)``, both
    networks are simulated in one wide pass, and the scan visits
    (round, PO, lowest bit) in that order, so the counterexample is a pure
    function of the two networks, *seed* and *rounds*.
    """
    rng = random.Random(seed)
    round_words = [[rng.getrandbits(64) for _ in range(aig_a.num_pis)]
                   for _ in range(rounds)]
    packed = pack_rounds(round_words)
    mask = wide_mask(rounds)
    prog_a = sim_program(aig_a)
    prog_b = sim_program(aig_b)
    wa = prog_a.po_words(prog_a.run(packed, mask), mask)
    wb = prog_b.po_words(prog_b.run(packed, mask), mask)
    for r in range(rounds):
        shift = 64 * r
        for po, (x, y) in enumerate(zip(wa, wb)):
            diff = ((x >> shift) ^ (y >> shift)) & WORD_MASK
            if diff:
                bit = (diff & -diff).bit_length() - 1
                inputs = [bool((w >> bit) & 1) for w in round_words[r]]
                return Counterexample(inputs, po, aig_a.po_name(po))
    return None


def find_counterexample(aig_a: Aig, aig_b: Aig,
                        exhaustive_limit: int = 12
                        ) -> Optional[Counterexample]:
    """Return a :class:`Counterexample` if the networks differ, else ``None``.

    Networks with at most *exhaustive_limit* inputs are compared by complete
    simulation.  Larger ones meet 256 random patterns, then a SAT sweep:
    both networks are strashed into one miter, proven-equal nodes are
    merged bottom-up, and one SAT call decides the PO pairs left apart.
    A SAT counterexample is checked by simulation before it is returned.
    """
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        raise ValueError("equivalence requires matching interfaces")
    if aig_a.num_pis <= exhaustive_limit:
        ta = po_tables(aig_a)
        tb = po_tables(aig_b)
        if ta == tb:
            return None
        for po, (x, y) in enumerate(zip(ta, tb)):
            diff = x ^ y
            if diff:
                row = (diff & -diff).bit_length() - 1
                inputs = [bool((row >> i) & 1) for i in range(aig_a.num_pis)]
                return Counterexample(inputs, po, aig_a.po_name(po))
        return None
    # Random simulation first: a cheap refutation path.
    cex = random_counterexample(aig_a, aig_b, CEC_SEED, CEC_ROUNDS)
    if cex is not None:
        return cex
    inputs = _sweep_miter(aig_a, aig_b)
    if inputs is None:
        return None
    po = _first_miscomparing_po(aig_a, aig_b, inputs)
    return Counterexample(inputs, po, aig_a.po_name(po))


def check_equivalence(aig_a: Aig, aig_b: Aig,
                      exhaustive_limit: int = 12) -> Tuple[bool, Optional[List[bool]]]:
    """Decide whether two networks are combinationally equivalent.

    Returns ``(True, None)`` or ``(False, counterexample_pi_assignment)``.
    Thin compatibility wrapper over :func:`find_counterexample`.
    """
    cex = find_counterexample(aig_a, aig_b, exhaustive_limit=exhaustive_limit)
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
