"""Independent output check: a bit-parallel AIG evaluator owned by the benchmark.

It reads only the public structure of ``repro.aig.Aig`` (``num_pis``,
``num_pos``, ``pis()``, ``pos()``, ``is_and()``, ``fanins()``) and shares
no code with ``repro.aig.simulate``, ``repro.aig.simprogram`` or
``repro.sat``, so a defect in those layers cannot vouch for a wrong result.

Every PI carries one Python integer whose bits are input patterns.  A
network with at most ``EXHAUSTIVE_LIMIT`` inputs is evaluated on all
``2**n`` assignments; a wider one on ``RANDOM_PATTERNS`` patterns drawn
from a fixed seed.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Tuple

EXHAUSTIVE_LIMIT = 16
RANDOM_PATTERNS = 4096
PATTERN_SEED = 0xC0FFEE


def _reachable_ands(aig) -> List[int]:
    """AND nodes reachable from the POs, every node after its fanins."""
    order: List[int] = []
    seen = set()
    for po in aig.pos():
        root = po >> 1
        if root in seen or not aig.is_and(root):
            continue
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for fanin in sorted(aig.fanins(node)):
                child = fanin >> 1
                if child not in seen and aig.is_and(child):
                    stack.append((child, False))
    return order


def _variable_patterns(num_vars: int) -> Tuple[List[int], int]:
    """Truth-table columns of *num_vars* variables (bit i = assignment i)."""
    nbits = 1 << num_vars
    mask = (1 << nbits) - 1
    patterns = []
    for var in range(num_vars):
        block = 1 << var
        period = (1 << (2 * block)) - 1
        unit = ((1 << block) - 1) << block
        patterns.append(unit * (mask // period))
    return patterns, mask


@functools.lru_cache(maxsize=None)
def input_patterns(num_pis: int) -> Tuple[List[int], int, bool]:
    """``(per-PI pattern words, mask, exhaustive?)`` for a network width."""
    if num_pis <= EXHAUSTIVE_LIMIT:
        patterns, mask = _variable_patterns(num_pis)
        return patterns, mask, True
    rng = random.Random(PATTERN_SEED + num_pis)
    mask = (1 << RANDOM_PATTERNS) - 1
    return [rng.getrandbits(RANDOM_PATTERNS) for _ in range(num_pis)], \
        mask, False


def evaluate(aig, patterns: List[int], mask: int) -> List[int]:
    """PO words of *aig* under one pattern word per PI."""
    values = {0: 0}
    for node, word in zip(aig.pis(), patterns):
        values[node] = word
    for node in _reachable_ands(aig):
        f0, f1 = aig.fanins(node)
        a = values[f0 >> 1]
        if f0 & 1:
            a ^= mask
        b = values[f1 >> 1]
        if f1 & 1:
            b ^= mask
        values[node] = a & b
    return [values[po >> 1] ^ mask if po & 1 else values[po >> 1]
            for po in aig.pos()]


class Checker:
    """Compares result networks with their inputs; each input's expected
    PO words are computed once and reused."""

    def __init__(self) -> None:
        self._expected = {}

    def mismatch(self, reference, result) -> Optional[str]:
        """Why *result* differs from *reference*, or ``None`` if they agree."""
        if reference.num_pis != result.num_pis \
                or reference.num_pos != result.num_pos:
            return (f"interface {result.num_pis}/{result.num_pos} != "
                    f"{reference.num_pis}/{reference.num_pos}")
        patterns, mask, exhaustive = input_patterns(reference.num_pis)
        # The entry keeps *reference* alive, so its id cannot be reused.
        entry = self._expected.get(id(reference))
        if entry is None:
            entry = self._expected[id(reference)] = (
                reference, evaluate(reference, patterns, mask))
        actual = evaluate(result, patterns, mask)
        for index, (x, y) in enumerate(zip(entry[1], actual)):
            if x != y:
                kind = "exhaustive" if exhaustive else "random"
                return f"PO {index} differs ({kind} patterns)"
        return None


def structure(aig) -> Tuple[int, Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """Node-for-node form of *aig*: reachable gates renumbered in the order
    a depth-first walk from the POs meets them.  Two networks are
    bit-for-bit equal iff their structures are equal (names are labels)."""
    local = {0: 0}
    for index, node in enumerate(aig.pis()):
        local[node] = index + 1
    gates = []
    for node in _reachable_ands(aig):
        f0, f1 = aig.fanins(node)
        a = 2 * local[f0 >> 1] + (f0 & 1)
        b = 2 * local[f1 >> 1] + (f1 & 1)
        gates.append((a, b) if a <= b else (b, a))
        local[node] = len(local)
    outputs = tuple(2 * local[po >> 1] + (po & 1) for po in aig.pos())
    return aig.num_pis, tuple(gates), outputs
