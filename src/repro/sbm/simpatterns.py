"""Simulation pattern store for simulation-guided resubstitution.

Simulation-Guided Boolean Resubstitution (Lee et al., arXiv:2007.02579)
replaces the BDD filters of the classical SBM engines with *expressive
simulation patterns*: candidate resubstitutions are proposed only when the
target and the divisors agree on every stored pattern, SAT validates the
survivors, and every counterexample a refuted proof produces becomes a new
pattern — the CEGAR loop that makes later proposals strictly harder to
fool.

The :class:`PatternStore` is that growing pattern set for one window:

* it is seeded **deterministically** from a config-carried seed, so a
  window worker stays a pure function of ``(sub-network, config)`` and the
  ``jobs=N == jobs=1`` bit-identity contract of :mod:`repro.parallel`
  holds;
* patterns are stored column-packed — one ``W x 64``-bit integer per
  input, bit *b* holding the input's value under pattern *b* — exactly the
  wide layout :func:`repro.aig.simprogram.simulate_wide` consumes, so all
  patterns simulate in a single compiled pass;
* :meth:`signatures` computes per-node signature words over the current
  pattern set in one pass of the compiled :class:`~repro.aig.simprogram
  .SimProgram`;
* :meth:`add_pattern` appends a counterexample.  A counterexample from a
  refuted candidate necessarily differs from every stored pattern (the
  candidate agreed with the target on all of them), so no dedup pass is
  needed; growth is bounded by ``max_patterns``.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.aig.aig import Aig
from repro.aig.simprogram import WORD_BITS, sim_program
from repro.errors import AigError

#: Default seed of the random pattern prefix (any fixed value works; it is
#: part of the engine configuration so it reaches the cache key).
DEFAULT_SEED = 0x51328E5


class PatternStore:
    """A deterministic, growing set of simulation patterns over N inputs."""

    def __init__(self, num_inputs: int, num_words: int = 4,
                 max_patterns: int = 1024,
                 seed: int = DEFAULT_SEED) -> None:
        if num_inputs <= 0:
            raise AigError("PatternStore needs at least one input")
        if num_words <= 0:
            raise AigError("PatternStore needs at least one pattern word")
        self.num_inputs = num_inputs
        self.num_patterns = WORD_BITS * num_words
        self.max_patterns = max(max_patterns, self.num_patterns)
        rng = random.Random(seed)
        #: column-packed patterns: ``_words[i]`` bit *b* = input *i* under
        #: pattern *b* (the :func:`simulate_wide` wide-word layout)
        self._words: List[int] = [rng.getrandbits(self.num_patterns)
                                  for _ in range(num_inputs)]

    @property
    def width_words(self) -> int:
        """64-bit simulation rounds covering the current pattern count."""
        return (self.num_patterns + WORD_BITS - 1) // WORD_BITS

    @property
    def mask(self) -> int:
        """All-ones mask over the current pattern count."""
        return (1 << self.num_patterns) - 1

    @property
    def full(self) -> bool:
        """True when counterexample growth has reached ``max_patterns``."""
        return self.num_patterns >= self.max_patterns

    def pi_words(self) -> List[int]:
        """The packed per-input pattern words (copy)."""
        return list(self._words)

    def add_pattern(self, bits: Sequence[bool]) -> bool:
        """Append one pattern (e.g. a SAT counterexample); False when full."""
        if len(bits) != self.num_inputs:
            raise AigError(f"pattern has {len(bits)} bits, store has "
                           f"{self.num_inputs} inputs")
        if self.full:
            return False
        position = self.num_patterns
        for i, bit in enumerate(bits):
            if bit:
                self._words[i] |= 1 << position
        self.num_patterns += 1
        return True

    def signatures(self, aig: Aig) -> List[int]:
        """Node-indexed signature words of *aig* under the stored patterns.

        Entry *n* is node *n*'s output over all patterns (bit *b* =
        pattern *b*); dead/unsimulated slots are 0.  The compiled program
        runs once over the packed wide words.
        """
        if aig.num_pis != self.num_inputs:
            raise AigError(f"network has {aig.num_pis} PIs, store has "
                           f"{self.num_inputs} inputs")
        return sim_program(aig).run(self._words, self.mask)
