"""Frozen reference implementations of the production fast paths.

Every primitive under ``src/`` has one implementation: compiled wide
simulation, the inlined BDD apply with its operation cache, the bit-test
SOP algebra, the memoized kernel search, and the one-pass random screens
of SAT sweeping, redundancy removal, CEC, the stage guard and the
simresub pattern store.  This module keeps the plain formulation each of
those replaced, copied verbatim, so that

* the identity tests (``tests/test_hotpath.py``, ``tests/test_simresub.py``)
  prove every fast path bit-identical to its reference — same values,
  same node ids, same networks, same counterexamples — and
* ``scripts/bench_hotpath.py`` times each engine against its reference.

Inside this module the reference functions call each other (the frozen
``kernel_value`` divides with the frozen ``divide``; the frozen call sites
simulate with the frozen ``simulate_words``), so the reference side of a
comparison never runs the fast path under test.

Do not edit the bodies to follow production: they are the specification
the fast paths are held to.  Nothing under ``src/`` may import this module,
and pytest does not collect it (``python_files`` is ``test_*`` /
``bench_*``).  The exhaustive NPN search is not here: it stays in
:mod:`repro.tt.npn` as ``_npn_canonical_reference``, the only path above
4 variables.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.aig.aig import Aig, lit, lit_is_compl, lit_node
from repro.aig.simprogram import WORD_BITS
from repro.aig.simulate import WORD_MASK, _variable_pattern, po_tables, po_words
from repro.aig.traversal import topological_order_all
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import AigError
from repro.guard.stage_guard import StageGuard
from repro.sat.cnf import AigCnf, prove_equivalent
from repro.sat.equivalence import (
    Counterexample,
    _first_miscomparing_po,
    _sweep_miter,
    check_equivalence,
)
from repro.sat.redundancy import _replace_network
from repro.sbm.simpatterns import PatternStore
from repro.sop.cube import Cube, cube_contains, cube_divide, cube_is_contradiction
from repro.sop.kernels import kernels
from repro.sop.sop import Sop


# -- simulation (repro.aig.simulate) ------------------------------------------

def simulate_words(aig: Aig, pi_words: Sequence[int]) -> Dict[int, int]:
    """Reference implementation: interpreted per-call topological walk."""
    if len(pi_words) != aig.num_pis:
        raise AigError(f"expected {aig.num_pis} PI words, got {len(pi_words)}")
    values: Dict[int, int] = {0: 0}
    for node, word in zip(aig.pis(), pi_words):
        values[node] = word & WORD_MASK
    for n in topological_order_all(aig):
        f0, f1 = aig.fanins(n)
        v0 = values[lit_node(f0)] ^ (WORD_MASK if lit_is_compl(f0) else 0)
        v1 = values[lit_node(f1)] ^ (WORD_MASK if lit_is_compl(f1) else 0)
        values[n] = v0 & v1
    return values


def simulate_complete(aig: Aig) -> Dict[int, int]:
    """Complete truth-table simulation by interpreted topological walk."""
    k = aig.num_pis
    if k > 24:
        raise AigError(f"complete simulation infeasible for {k} inputs")
    nbits = 1 << k
    mask = (1 << nbits) - 1
    values: Dict[int, int] = {0: 0}
    for i, node in enumerate(aig.pis()):
        values[node] = _variable_pattern(i, nbits)
    for n in topological_order_all(aig):
        f0, f1 = aig.fanins(n)
        v0 = values[lit_node(f0)] ^ (mask if lit_is_compl(f0) else 0)
        v1 = values[lit_node(f1)] ^ (mask if lit_is_compl(f1) else 0)
        values[n] = v0 & v1
    return values


# -- BDD apply (repro.bdd.manager) --------------------------------------------

class ReferenceBddManager(BddManager):
    """The manager with the original recursive ITE and plain-ITE apply.

    A subclass, so the unique table, node ids, the node limit and every
    other operation are the production manager's: node ids and
    :class:`~repro.errors.BddLimitError` points stay directly comparable.
    """

    def ite(self, f: int, g: int, h: int) -> int:
        return self._ite_recursive(f, g, h)

    def _ite_recursive(self, f: int, g: int, h: int) -> int:
        """Reference ITE: the original recursive formulation."""
        # Terminal cases.
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cached = self._cache_ite.get(key)
        if cached is not None:
            return cached
        top = min(v for v in (self._var[f],
                              self._var[g] if g > 1 else 10 ** 9,
                              self._var[h] if h > 1 else 10 ** 9))
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        low = self._ite_recursive(f0, g0, h0)
        high = self._ite_recursive(f1, g1, h1)
        result = self._mk(top, low, high)
        self._cache_ite[key] = result
        return result

    def _cofactors(self, node: int, var: int) -> Tuple[int, int]:
        if node <= 1 or self._var[node] != var:
            return node, node
        return self._low[node], self._high[node]

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.negate(g), g)


# -- SOP algebra (repro.sop) --------------------------------------------------

class ReferenceSop(Sop):
    """An SOP cover whose ``add_cube`` is the original two-scan insert."""

    def add_cube(self, cube: Cube) -> None:
        if cube_is_contradiction(cube):
            return
        for existing in self.cubes:
            if cube_contains(existing, cube):
                return  # already covered
        self.cubes = [c for c in self.cubes if not cube_contains(cube, c)]
        self.cubes.append(cube)


def divide(f: Sop, d: Sop) -> Tuple[Sop, Sop]:
    """Weak-divide cover *f* by cover *d*; returns ``(quotient, remainder)``."""
    if d.is_const0():
        return Sop(), f.copy()
    quotient: Optional[set] = None
    for d_cube in d.cubes:
        partial = set()
        for f_cube in f.cubes:
            q = cube_divide(f_cube, d_cube)
            if q is not None:
                partial.add(q)
        if quotient is None:
            quotient = partial
        else:
            quotient &= partial
        if not quotient:
            return Sop(), f.copy()
    q_sop = Sop(sorted(quotient))
    product = q_sop & d
    remainder = Sop(c for c in f.cubes if c not in set(product.cubes))
    return q_sop, remainder


def divide_by_cube(f: Sop, cube: Cube) -> Tuple[Sop, Sop]:
    """Divide by a single cube (cheap special case)."""
    quotient = Sop()
    remainder = Sop()
    for c in f.cubes:
        q = cube_divide(c, cube)
        if q is not None:
            quotient.add_cube(q)
        else:
            remainder.add_cube(c)
    return quotient, remainder


def kernel_value(nodes: Iterable[Sop], kernel: Sop) -> int:
    """Literal saving from extracting *kernel* as a new shared node."""
    kernel_literals = kernel.num_literals()
    total_saving = 0
    uses = 0
    for node in nodes:
        quotient, remainder = divide(node, kernel)
        if quotient.is_const0():
            continue
        new_cost = quotient.num_literals() + quotient.num_cubes() + remainder.num_literals()
        old_cost = node.num_literals()
        if new_cost < old_cost:
            total_saving += old_cost - new_cost
            uses += 1
    if uses == 0:
        return -kernel_literals
    return total_saving - kernel_literals


def best_kernel(nodes: List[Sop], max_kernels_per_node: int = 50
                ) -> Optional[Tuple[Sop, int]]:
    """The kernel (from any node) with the best extraction value, or None:
    the uncached loop."""
    best: Optional[Sop] = None
    best_value = 0
    seen: set = set()
    for node in nodes:
        for kernel, _cokernel in kernels(node, max_kernels_per_node):
            if kernel.num_cubes() < 2:
                continue
            key = tuple(sorted(kernel.cubes))
            if key in seen:
                continue
            seen.add(key)
            value = kernel_value(nodes, kernel)
            if value > best_value:
                best_value = value
                best = kernel
    if best is None:
        return None
    return best, best_value


# -- SAT sweeping (repro.sat.sweep) -------------------------------------------

def sat_sweep(aig: Aig, num_sim_rounds: int = 8,
              max_proofs: Optional[int] = None,
              rng: Optional[random.Random] = None) -> int:
    """Merge SAT-proven equivalent nodes; signatures from per-round walks."""
    rng = rng or random.Random(20190311)
    if aig.num_pis == 0:
        return 0
    patterns: List[List[int]] = [
        [rng.getrandbits(64) for _ in range(aig.num_pis)]
        for _ in range(num_sim_rounds)
    ]
    values_per_round = [simulate_words(aig, words) for words in patterns]

    def signature(node: int) -> int:
        sig = 0
        for values in values_per_round:
            sig = (sig << 64) | values[node]
        return sig

    classes: Dict[int, List[int]] = {}
    order = aig.topological_order()
    for node in [0] + aig.pis() + order:
        sig = signature(node)
        norm = sig if not (sig & 1) else sig ^ ((1 << (64 * num_sim_rounds)) - 1)
        classes.setdefault(norm, []).append(node)

    cnf = AigCnf(aig)
    merges = 0
    proofs = 0
    for norm in list(classes):
        members = classes[norm]
        if len(members) < 2:
            continue
        representative = members[0]
        rep_sig = signature(representative)
        for node in members[1:]:
            if aig.is_dead(node) or aig.is_dead(representative):
                continue
            if node == representative:
                continue
            if max_proofs is not None and proofs >= max_proofs:
                return merges
            complemented = signature(node) != rep_sig
            target_lit = lit(representative, complemented)
            proofs += 1
            equivalent, _cex = prove_equivalent(cnf, lit(node), target_lit)
            if equivalent and not aig.is_pi(node):
                aig.replace(node, target_lit)
                merges += 1
    return merges


# -- redundancy removal (repro.sat.redundancy) --------------------------------

def remove_redundancies(aig: Aig, max_checks: Optional[int] = None,
                        rng: Optional[random.Random] = None,
                        sim_rounds: int = 4) -> int:
    """Remove SAT-proven redundant AND fanin edges; per-round golden screen."""
    rng = rng or random.Random(0x9ED)
    removed = 0
    checks = 0
    progress = True
    while progress:
        progress = False
        baseline = aig.cleanup()
        patterns = [[rng.getrandbits(64) for _ in range(aig.num_pis)]
                    for _ in range(sim_rounds)]
        golden = [po_words(baseline, simulate_words(baseline, words))
                  for words in patterns]
        for node in list(baseline.topological_order()):
            for keep_index in (0, 1):
                if max_checks is not None and checks >= max_checks:
                    return removed
                candidate = _try_edge(baseline, node, keep_index,
                                      patterns, golden)
                if candidate is None:
                    continue
                checks += 1
                ok, _cex = check_equivalence(baseline, candidate)
                if ok:
                    baseline = candidate
                    removed += 1
                    progress = True
                    break
            if progress:
                break
        if progress:
            _replace_network(aig, baseline)
    return removed


def _try_edge(aig: Aig, node: int, keep_index: int,
              patterns: List[List[int]],
              golden: List[List[int]]) -> Optional[Aig]:
    """Clone *aig* with one fanin of *node* forced to 1; None if sim refutes."""
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
    for words, reference in zip(patterns, golden):
        if po_words(clone, simulate_words(clone, words)) != reference:
            return None
    return clone.cleanup()


# -- CEC (repro.sat.equivalence) ----------------------------------------------

def find_counterexample(aig_a: Aig, aig_b: Aig,
                        exhaustive_limit: int = 12
                        ) -> Optional[Counterexample]:
    """CEC with the per-round random rung ahead of the production sweep."""
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
    rng = random.Random(0xCEC)
    for _ in range(4):
        words = [rng.getrandbits(64) for _ in range(aig_a.num_pis)]
        wa = po_words(aig_a, simulate_words(aig_a, words))
        wb = po_words(aig_b, simulate_words(aig_b, words))
        for po, (x, y) in enumerate(zip(wa, wb)):
            diff = x ^ y
            if diff:
                bit = (diff & -diff).bit_length() - 1
                inputs = [bool((w >> bit) & 1) for w in words]
                return Counterexample(inputs, po, aig_a.po_name(po))
    inputs = _sweep_miter(aig_a, aig_b)
    if inputs is None:
        return None
    po = _first_miscomparing_po(aig_a, aig_b, inputs)
    return Counterexample(inputs, po, aig_a.po_name(po))


# -- stage guard (repro.guard.stage_guard) ------------------------------------

class ReferenceStageGuard(StageGuard):
    """The guard with its original per-round fast check."""

    def fast_check(self, candidate: Aig) -> Optional[Counterexample]:
        """Random-simulation miscompare check; None when all patterns agree."""
        self.fast_checks += 1
        rng = random.Random(self.seed)
        rounds = (self.patterns + 63) // 64
        for _ in range(rounds):
            words = [rng.getrandbits(64)
                     for _ in range(self.reference.num_pis)]
            wa = po_words(self.reference,
                          simulate_words(self.reference, words))
            wb = po_words(candidate, simulate_words(candidate, words))
            for po, (x, y) in enumerate(zip(wa, wb)):
                diff = x ^ y
                if diff:
                    bit = (diff & -diff).bit_length() - 1
                    inputs = [bool((w >> bit) & 1) for w in words]
                    self.fast_rejects += 1
                    return Counterexample(inputs, po,
                                          self.reference.po_name(po))
        return None


# -- simresub pattern store (repro.sbm.simpatterns) ---------------------------

def pattern_store_signatures(self: PatternStore, aig: Aig) -> List[int]:
    """``PatternStore.signatures`` assembled from per-round walks."""
    if aig.num_pis != self.num_inputs:
        raise AigError(f"network has {aig.num_pis} PIs, store has "
                       f"{self.num_inputs} inputs")
    mask = self.mask
    values = [0] * (aig.max_node + 1)
    for r in range(self.width_words):
        shift = WORD_BITS * r
        round_words = [(w >> shift) & WORD_MASK for w in self._words]
        round_values = simulate_words(aig, round_words)
        for node, word in round_values.items():
            values[node] |= word << shift
    return [v & mask for v in values]


@contextmanager
def frozen_signatures() -> Iterator[None]:
    """Run a block with ``PatternStore.signatures`` swapped for
    :func:`pattern_store_signatures` (every store, every caller)."""
    original = PatternStore.signatures
    PatternStore.signatures = pattern_store_signatures  # type: ignore[assignment]
    try:
        yield
    finally:
        PatternStore.signatures = original  # type: ignore[method-assign]
