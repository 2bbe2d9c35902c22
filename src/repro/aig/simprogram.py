"""Compiled bit-parallel simulation (``repro.aig.simprogram``).

The interpreted :func:`repro.aig.simulate.simulate_words` re-derives the
same structures on every call: a fresh topological sort, a per-node dict,
tuple-returning ``fanins`` accessors and literal decoding for every gate.
Multi-round callers (SAT sweeping, CEC's 256-pattern random rung, which
the stage guard runs through, and redundancy removal) would pay that cost
once per round.

:class:`SimProgram` compiles the network once per *generation* (the
:attr:`repro.aig.aig.Aig.generation` edit stamp) into flat parallel int
arrays — fanin node indices, complement masks, cached topological order —
and then evaluates any number of pattern words with a tight loop over
those arrays, writing into a node-indexed list instead of a dict.  This is
the flat-fanin-array device ABC's simulation engines use, expressed in
Python.

On top of it, :func:`simulate_wide` evaluates ``W`` 64-bit rounds in a
*single* pass: each PI carries one ``W x 64``-bit integer (round ``r`` in
bits ``[64*r, 64*r + 64)``), and Python's arbitrary-precision bitwise ops
process all rounds at once.  An 8-round SAT-sweep fingerprint becomes one
512-bit sweep over the program instead of eight 64-bit interpreter walks.

The program is cached on the network object and invalidated automatically:
any structural edit advances the network generation, and the next
simulation call recompiles.  Generations are globally unique across all
``Aig`` instances, so even wholesale ``__dict__`` swaps (see
``repro.sat.redundancy._replace_network``) can never resurrect a stale
program.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.aig.aig import Aig
from repro.aig.traversal import topological_order_all
from repro.errors import AigError

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


class SimProgram:
    """Flat, width-agnostic simulation program for one network generation.

    The same compiled program evaluates 64-bit words, ``W x 64``-bit wide
    words, or complete truth tables — only the evaluation mask changes.
    """

    __slots__ = ("generation", "num_slots", "pi_nodes", "ops", "pos")

    def __init__(self, aig: Aig) -> None:
        self.generation = aig.generation
        self.num_slots = aig.max_node + 1
        self.pi_nodes: Tuple[int, ...] = tuple(aig.pis())
        #: one ``(node, fanin0, compl0, fanin1, compl1)`` row per live AND
        #: gate, in topological (fanin-before-fanout) order.
        ops: List[Tuple[int, int, int, int, int]] = []
        fanin0 = aig._fanin0
        fanin1 = aig._fanin1
        for n in topological_order_all(aig):
            f0 = fanin0[n]
            f1 = fanin1[n]
            ops.append((n, f0 >> 1, f0 & 1, f1 >> 1, f1 & 1))
        self.ops = ops
        self.pos: Tuple[Tuple[int, int], ...] = tuple(
            (po >> 1, po & 1) for po in aig.pos())

    def run(self, pi_words: Sequence[int], mask: int = WORD_MASK) -> List[int]:
        """Evaluate the program; returns a node-indexed value list.

        ``pi_words`` supplies one pattern integer per PI (any width up to
        ``mask``); entry ``i`` of the result is node ``i``'s output word.
        Slots of dead/unsimulated nodes are 0.
        """
        if len(pi_words) != len(self.pi_nodes):
            raise AigError(f"expected {len(self.pi_nodes)} PI words, "
                           f"got {len(pi_words)}")
        values = [0] * self.num_slots
        for node, word in zip(self.pi_nodes, pi_words):
            values[node] = word & mask
        for n, a, ca, b, cb in self.ops:
            va = values[a] ^ mask if ca else values[a]
            vb = values[b] ^ mask if cb else values[b]
            values[n] = va & vb
        return values

    def po_words(self, values: Sequence[int], mask: int = WORD_MASK) -> List[int]:
        """PO output words extracted from a :meth:`run` result."""
        return [values[node] ^ mask if compl else values[node]
                for node, compl in self.pos]


def sim_program(aig: Aig) -> SimProgram:
    """The network's compiled simulation program (cached per generation)."""
    cached = getattr(aig, "_sim_program", None)
    if cached is not None and cached.generation == aig.generation:
        return cached
    program = SimProgram(aig)
    aig._sim_program = program
    return program


def wide_mask(width_words: int) -> int:
    """All-ones mask covering *width_words* 64-bit simulation rounds."""
    return (1 << (WORD_BITS * width_words)) - 1


def pack_rounds(rounds: Sequence[Sequence[int]]) -> List[int]:
    """Pack per-round 64-bit PI words into one wide word per PI.

    ``rounds[r][i]`` is PI *i*'s word for round *r*; round *r* lands in
    bits ``[64*r, 64*r + 64)`` of the packed word, so bit ``64*r + b`` of
    any simulated value is pattern bit *b* of round *r* — the layout
    :func:`repro.sat.equivalence.first_miscompare` relies on when decoding
    counterexamples.
    """
    if not rounds:
        return []
    num_pis = len(rounds[0])
    packed = [0] * num_pis
    for r, words in enumerate(rounds):
        shift = WORD_BITS * r
        for i in range(num_pis):
            packed[i] |= (words[i] & WORD_MASK) << shift
    return packed


def simulate_wide(aig: Aig, pi_words: Sequence[int],
                  width_words: int) -> List[int]:
    """Simulate ``width_words`` 64-bit rounds in one pass.

    Each entry of *pi_words* is a ``width_words x 64``-bit integer (see
    :func:`pack_rounds` for the layout).  Returns the node-indexed value
    list; decode round *r* of node *n* as
    ``(values[n] >> (64 * r)) & WORD_MASK``.
    """
    return sim_program(aig).run(pi_words, wide_mask(width_words))
