"""Frozen reference implementations of the production fast paths.

Every primitive under ``src/`` has one implementation: compiled wide
simulation, the inlined BDD apply with its operation cache, the bit-test
SOP algebra, the memoized kernel search, the one-pass random screens of
SAT sweeping, redundancy removal and CEC, the simresub pattern store,
the truth-table kernel (loop-free projection masks, ISOP on shrinking
cofactors, mask-swap cut-table expansion), the gradient engine's move
loop, which does not re-run a move that already failed on the same
window of the same live network, the resubstitution window's
divisor search, which keeps divisors out of the pivot's fanout cone
without walking it, and the MSPF engine, which tests connectability
with an allocation-free walk and rebuilds only the node's fanout cone.
This module keeps the plain formulation each of those replaced, copied
verbatim, so that

* the identity tests (``tests/test_hotpath.py``, ``tests/test_simresub.py``,
  ``tests/test_property_tt.py``, ``tests/test_sbm_gradient.py``,
  ``tests/test_partition.py``, ``tests/test_sbm_mspf.py``) prove
  every fast path bit-identical to its reference — same values, same node
  ids, same networks, same counterexamples — and
* ``scripts/bench_hotpath.py`` times each engine against its reference.

Inside this module the reference functions call each other (the frozen
``kernel_value`` divides with the frozen ``divide``; the frozen call sites
simulate with the frozen ``simulate_words``; the frozen ``_isop_rec``
masks with the frozen ``variable_table``; the frozen ``simulate_complete``
projects with the frozen ``_variable_pattern``; the frozen MSPF
``optimize_partition`` judges nodes with the frozen ``_compute_mspf`` and
``_resub_under_mspf``), so the reference side of a comparison never runs
the fast path under test.

Do not edit the bodies to follow production: they are the specification
the fast paths are held to.  Nothing under ``src/`` may import this module,
and pytest does not collect it (``python_files`` is ``test_*`` /
``bench_*``).  The exhaustive NPN search is not here: it stays in
:mod:`repro.tt.npn` as ``_npn_canonical_reference``, the only path above
4 variables.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro import obs
from repro.aig.aig import Aig, lit, lit_is_compl, lit_node
from repro.aig.simprogram import WORD_BITS
from repro.aig.simulate import WORD_MASK, po_tables, po_words
from repro.aig.traversal import (node_level_map, topological_order_all,
                                 transitive_fanout)
from repro.bdd import pool as bdd_pool
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import AigError, BddLimitError, ReproError, SatError
from repro.opt.shared import try_replace
from repro.partition.partitioner import Window
from repro.partition.window import NodeWindow
from repro.sat.cnf import AigCnf, prove_equivalent
from repro.sat.equivalence import Counterexample, _sweep_miter, check_equivalence
from repro.sat.redundancy import _replace_network
from repro.sbm.config import GradientConfig, MspfConfig
from repro.sbm.gradient import (GradientStats, _parallel, _partitions,
                                _publish_gradient)
from repro.sbm.mspf import MspfStats, _window_bdds
from repro.sbm.moves import DEFAULT_MOVES, Move
from repro.sbm.simpatterns import PatternStore
from repro.sop.cube import Cube, cube_contains, cube_divide, cube_is_contradiction
from repro.sop.kernels import kernels
from repro.sop.sop import Sop
from repro.tt.truthtable import table_mask


# -- simulation (repro.aig.simulate) ------------------------------------------

def _variable_pattern(index: int, nbits: int) -> int:
    """Truth table of input variable *index* over *nbits* rows."""
    period = 1 << (index + 1)
    run = (1 << (1 << index)) - 1
    pattern = 0
    pos = 1 << index
    while pos < nbits:
        pattern |= run << pos
        pos += period
    return pattern


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


# -- truth tables (repro.tt.truthtable, repro.tt.isop, repro.aig.cuts) ---------

def variable_table(index: int, num_vars: int) -> int:
    """Truth table of the projection function ``x_index``."""
    if index >= num_vars:
        raise ReproError(f"variable {index} out of range for {num_vars} vars")
    nbits = 1 << num_vars
    period = 1 << (index + 1)
    run = (1 << (1 << index)) - 1
    out = 0
    pos = 1 << index
    while pos < nbits:
        out |= run << pos
        pos += period
    return out


def _isop_rec(lower: int, upper: int, var: int, num_vars: int):
    """Recursive Minato–Morreale; returns (cubes, cover table bits)."""
    if lower == 0:
        return [], 0
    full = table_mask(num_vars)
    if upper & full == full:
        return [(0, 0)], full
    # Find the topmost variable where either bound still branches.
    v = var - 1
    while v >= 0:
        mask = variable_table(v, num_vars)
        shift = 1 << v
        l0 = lower & ~mask
        l1 = (lower & mask) >> shift
        u0 = upper & ~mask
        u1 = (upper & mask) >> shift
        l1 = l1 | (l1 << shift)
        l0 = l0 | (l0 << shift)
        u1 = u1 | (u1 << shift)
        u0 = u0 | (u0 << shift)
        if l0 != l1 or u0 != u1:
            break
        v -= 1
    if v < 0:
        # Function is constant over remaining variables; lower != 0 here.
        return [(0, 0)], full
    # Cubes required exclusively in each branch.
    cubes0, f0 = _isop_rec(l0 & ~u1 & full, u0, v, num_vars)
    cubes1, f1 = _isop_rec(l1 & ~u0 & full, u1, v, num_vars)
    # Remaining minterms can be covered without literal v.
    new_lower = (l0 & ~f0) | (l1 & ~f1)
    cubes2, f2 = _isop_rec(new_lower & full, u0 & u1, v, num_vars)
    var_bit = 1 << v
    result = ([(pos, neg | var_bit) for pos, neg in cubes0]
              + [(pos | var_bit, neg) for pos, neg in cubes1]
              + cubes2)
    mask = variable_table(v, num_vars)
    table = (f0 & ~mask) | (f1 & mask) | f2
    return result, table


def _expand_table(table: int, from_leaves: Tuple[int, ...],
                  to_leaves: Tuple[int, ...], nbits: int) -> int:
    """Re-express *table* (over *from_leaves*) over the superset *to_leaves*."""
    if from_leaves == to_leaves:
        return table
    positions = [to_leaves.index(leaf) for leaf in from_leaves]
    out = 0
    for row in range(nbits):
        idx = 0
        for bit, pos in enumerate(positions):
            if (row >> pos) & 1:
                idx |= 1 << bit
        if (table >> idx) & 1:
            out |= 1 << row
    return out


# -- gradient engine (repro.sbm.gradient) ------------------------------------

def gradient_optimize(aig: Aig, config: Optional[GradientConfig] = None,
                      moves: Optional[List[Move]] = None,
                      selection: str = "waterfall") -> GradientStats:
    """Run the gradient-based engine in place; returns its statistics.

    ``selection`` is ``"waterfall"`` (default; first successful move wins)
    or ``"parallel"`` (every admissible move is evaluated on a scratch copy
    and only the best is applied — better QoR, much slower; provided for the
    ablation experiment).
    """
    config = config or GradientConfig()
    moves = list(moves) if moves is not None else list(DEFAULT_MOVES)
    stats = GradientStats()
    budget = config.cost_budget
    max_unlocked_cost = 1  # start with unit-cost moves
    size_at_start = max(1, aig.num_ands)

    with obs.span("gradient_engine", kind="engine", selection=selection,
                  nodes_before=aig.num_ands) as engine_span:
        while stats.cost_spent < budget:
            partitions = _partitions(aig, config)
            if not partitions:
                break
            sweep_gain = 0
            with obs.span("sweep", kind="sweep", windows=len(partitions),
                          unlocked_cost=max_unlocked_cost) as sweep_span:
                for window in partitions:
                    if stats.cost_spent >= budget:
                        break
                    admissible = [m for m in moves
                                  if m.cost <= max_unlocked_cost]
                    # Adaptive priority: cheap first, then observed success
                    # rate.
                    admissible.sort(
                        key=lambda m: (m.cost, -stats.success_rate(m.name)))
                    if selection == "waterfall":
                        gain = _waterfall(aig, window, admissible, stats)
                    else:
                        gain = _parallel(aig, window, admissible, stats)
                    sweep_gain += gain
                    stats.gain_history.append(gain)
                    # Gradient bookkeeping over the last k move applications.
                    k = config.window_k
                    if len(stats.gain_history) >= k:
                        recent = sum(stats.gain_history[-k:])
                        gradient = recent / size_at_start
                        if gradient == 0:
                            stats.terminated_early = True
                            sweep_span.set("gain", sweep_gain)
                            _publish_gradient(engine_span, stats, aig,
                                              size_at_start, budget)
                            obs.metrics().inc("gradient.early_terminations")
                            return stats
                        if (gradient > config.min_gain_gradient
                                and stats.cost_spent > budget - 10):
                            budget += config.budget_extension
                            stats.budget_extensions += 1
                            obs.metrics().inc("gradient.budget_extensions")
                sweep_span.set("gain", sweep_gain)
                sweep_span.set("cost_spent", stats.cost_spent)
            if sweep_gain == 0:
                if max_unlocked_cost >= max(m.cost for m in moves):
                    break  # full local minimum
                # Local minimum with the current move set: unlock costlier
                # moves.
                max_unlocked_cost = min(m.cost for m in moves
                                        if m.cost > max_unlocked_cost)
                obs.metrics().inc("gradient.cost_unlocks")
            stats.total_gain = size_at_start - aig.num_ands
        stats.total_gain = size_at_start - aig.num_ands
        _publish_gradient(engine_span, stats, aig, size_at_start, budget)
    return stats


def _waterfall(aig: Aig, window: Window, admissible: List[Move],
               stats: GradientStats) -> int:
    """Try moves in order; keep the first that improves the partition."""
    registry = obs.metrics()
    # Not kind "window": the progress bus publishes those, one event each,
    # and this engine opens one per window it tries moves on.
    with obs.span("window", kind="gradient_window",
                  size=len(window.nodes)) as window_span:
        for move in admissible:
            if all(aig.is_dead(n) for n in window.nodes):
                return 0
            stats.moves_tried += 1
            stats.cost_spent += move.cost
            stats.move_attempts[move.name] = (
                stats.move_attempts.get(move.name, 0) + 1)
            registry.inc("gradient.moves_tried", move=move.name)
            t0 = time.perf_counter()
            gain = move.apply(aig, window)
            if gain > 0:
                stats.moves_succeeded += 1
                stats.move_success[move.name] = (
                    stats.move_success.get(move.name, 0) + 1)
                stats.total_gain += 0  # recomputed at sweep end
                registry.inc("gradient.moves_succeeded", move=move.name)
                registry.inc("gradient.gain", gain, move=move.name)
                obs.tracer().record("move", kind="move",
                                    wall_s=time.perf_counter() - t0,
                                    move=move.name, cost=move.cost,
                                    gain=gain)
                window_span.set("winner", move.name)
                window_span.set("gain", gain)
                return gain
    return 0


# -- resubstitution windows (repro.partition.window) --------------------------

def collect_window(aig: Aig, pivot: int, max_leaves: int = 8,
                   max_divisors: int = 150,
                   levels: Optional[Dict[int, int]] = None) -> Optional[NodeWindow]:
    """Build a reconvergence-driven window around *pivot*.

    The cone's inner nodes are always divisors.  The pivot's transitive
    fanout is walked only when they leave room for more, so a caller
    that asks for none (``max_divisors=0``, as ``refactor`` does) never
    pays for it.

    Returns None when the pivot has no suitable cut (e.g. it is a PI).
    """
    if not aig.is_and(pivot):
        return None
    levels = levels if levels is not None else node_level_map(aig)
    leaves = _reconvergent_cut(aig, pivot, max_leaves, levels)
    leaf_set = set(leaves)
    # Cone between leaves and pivot.
    cone: List[int] = []
    seen: Set[int] = set(leaf_set)
    stack = [pivot]
    post: List[int] = []
    visiting: Set[int] = set()
    while stack:
        n = stack[-1]
        if n in seen:
            stack.pop()
            continue
        if n in visiting:
            seen.add(n)
            post.append(n)
            stack.pop()
            continue
        visiting.add(n)
        for f in aig.fanins(n):
            fn = lit_node(f)
            if fn not in seen and aig.is_and(fn):
                stack.append(fn)
    cone = post
    divisors: List[int] = [n for n in cone if n != pivot]
    if len(divisors) >= max_divisors:
        return NodeWindow(pivot=pivot, leaves=leaves, cone=cone,
                          divisors=divisors)
    # Divisors: grow from leaves/cone through fanouts that stay inside the
    # leaf-supported space and avoid the pivot's transitive fanout.
    tfo = transitive_fanout(aig, [pivot])
    inside: Set[int] = leaf_set | set(cone)
    frontier = list(inside)
    pivot_level = levels.get(pivot, 0)
    while frontier and len(divisors) < max_divisors:
        node = frontier.pop()
        for t in aig.fanout_nodes(node):
            if t in inside or t in tfo or not aig.is_and(t):
                continue
            f0, f1 = (lit_node(f) for f in aig.fanins(t))
            if (f0 in inside and f1 in inside
                    and levels.get(t, pivot_level + 3) <= pivot_level + 2):
                inside.add(t)
                divisors.append(t)
                frontier.append(t)
                if len(divisors) >= max_divisors:
                    break
    return NodeWindow(pivot=pivot, leaves=leaves, cone=cone, divisors=divisors)


def _reconvergent_cut(aig: Aig, pivot: int, max_leaves: int,
                      levels: Dict[int, int]) -> List[int]:
    """Grow a cut below *pivot* by repeatedly expanding the deepest leaf."""
    cut: Set[int] = {lit_node(f) for f in aig.fanins(pivot)}
    for _iteration in range(60):
        # Prefer expanding AND leaves whose expansion keeps the cut small
        # (cost = extra leaves introduced; reconvergence gives cost <= 0).
        best = None
        best_cost = 10 ** 9
        for leaf in cut:
            if not aig.is_and(leaf):
                continue
            fanin_nodes = {lit_node(f) for f in aig.fanins(leaf)}
            cost = len((fanin_nodes - cut) - {leaf}) - 1
            if cost < best_cost or (cost == best_cost and best is not None
                                    and levels.get(leaf, 0) > levels.get(best, 0)):
                best = leaf
                best_cost = cost
        if best is None:
            break
        if len(cut) + best_cost > max_leaves:
            break
        cut.discard(best)
        cut |= {lit_node(f) for f in aig.fanins(best)}
        if len(cut) > max_leaves:  # safety net
            break
    return sorted(cut)


# -- MSPF engine (repro.sbm.mspf) ---------------------------------------------

def optimize_partition(aig: Aig, window: Window, config: MspfConfig,
                       stats: MspfStats) -> None:
    """MSPF-based resubstitution inside one partition."""
    # Earlier edits elsewhere can change the window's boundary (fanins
    # rewired outside it) and which nodes are externally referenced; MSPF
    # validity requires the *current* observability boundary, so recompute
    # the whole window against the network's present state.
    from repro.partition.partitioner import refresh_window
    refreshed = refresh_window(aig, window)
    if refreshed is None or not refreshed.leaves:
        return
    window = refreshed
    root_set = set(window.roots)
    nodes = [n for n in window.nodes if n not in root_set]
    if not nodes:
        return
    # Estimated-saving ordering: big MFFCs first within the topological list.
    nodes.sort(key=lambda n: -aig.mffc_size(n))
    alive = list(window.nodes)
    rebuilt = _window_bdds(aig, window, alive, config)
    if rebuilt is None:
        return
    manager, all_bdds, z_var = rebuilt
    try:
        for n in nodes:
            if aig.is_dead(n) or not aig.is_and(n) or n not in all_bdds:
                continue
            if n in root_set:
                # Cascade merges during earlier rewrites can promote a member
                # to the observability boundary; never optimize a current root.
                continue
            stats.nodes_processed += 1
            mspf = _compute_mspf(aig, window, manager, all_bdds, z_var, n,
                                 config, stats)
            if mspf is None or mspf == FALSE:
                continue
            stats.mspf_nonzero += 1
            try:
                gain = _resub_under_mspf(aig, window, manager, all_bdds, n,
                                         mspf, config, stats)
            except BddLimitError:
                # Memory-limit bailout (Section IV-C): "the algorithm sets the
                # BDD size of the node to 0 ... the computation can then
                # continue by considering the other nodes."
                stats.bdd_bailouts += 1
                continue
            if gain:
                stats.rewrites += 1
                stats.gain += gain
                # Internal functions changed (within their permissible sets)
                # and cascade merges may have moved the observability
                # boundary: refresh the whole window and its BDDs before
                # judging further nodes.
                refreshed = refresh_window(aig, window)
                if refreshed is None:
                    return
                window = refreshed
                root_set = set(window.roots)
                alive = list(window.nodes)
                # Recycle the window's own manager (container capacity,
                # not nodes) instead of constructing a fresh one per
                # rebuild; reset_for_reuse replays fresh-manager state
                # exactly.
                reuse, manager = manager, None
                rebuilt = _window_bdds(aig, window, alive, config,
                                       reuse=reuse)
                if rebuilt is None:
                    return
                manager, all_bdds, z_var = rebuilt
    finally:
        if manager is not None:
            bdd_pool.release(manager)


def _compute_mspf(aig: Aig, window: Window, manager: BddManager,
                  all_bdds: Dict[int, int], z_var: int, node: int,
                  config: MspfConfig, stats: MspfStats,
                  output_dcs: Optional[Dict[int, int]] = None) -> Optional[int]:
    """The paper's MSPF loop for one node; None on memory bailout.

    ``output_dcs`` optionally maps root node → pre-existing don't-care BDD
    (the ``dc(po_i)`` term).
    """
    try:
        with_z = _bdds_with_free_node(aig, window, manager, all_bdds,
                                      z_var, node)
        if with_z is None:
            return None
        mspf = TRUE
        for root in window.roots:
            fz = with_z.get(root)
            if fz is None:
                return None
            f0 = manager.cofactor(fz, z_var, False)
            f1 = manager.cofactor(fz, z_var, True)
            insensitive = manager.apply_xnor(f0, f1)
            if output_dcs and root in output_dcs:
                insensitive = manager.apply_or(insensitive, output_dcs[root])
            mspf = manager.apply_and(mspf, insensitive)
            if mspf == FALSE:
                return FALSE  # early stop (Section IV-C)
        return mspf
    except BddLimitError:
        stats.bdd_bailouts += 1
        return None


def _bdds_with_free_node(aig: Aig, window: Window, manager: BddManager,
                         all_bdds: Dict[int, int], z_var: int,
                         node: int) -> Optional[Dict[int, int]]:
    """Window BDDs recomputed with *node* treated as free variable ``z``."""
    from repro.aig.aig import lit_is_compl
    values: Dict[int, int] = {}
    for leaf in window.leaves:
        values[leaf] = all_bdds[leaf] if leaf in all_bdds else None
        if values[leaf] is None:
            return None
    values[0] = FALSE
    values[node] = manager.var(z_var)
    for n in window.nodes:
        if n == node or aig.is_dead(n) or not aig.is_and(n):
            continue
        if n in values:
            continue
        f0, f1 = aig.fanins(n)
        b0 = values.get(lit_node(f0), all_bdds.get(lit_node(f0)))
        b1 = values.get(lit_node(f1), all_bdds.get(lit_node(f1)))
        if b0 is None or b1 is None:
            return None
        # Fanins untouched by z keep their cached BDD; reuse saves work.
        if lit_node(f0) not in values:
            values[lit_node(f0)] = b0
        if lit_node(f1) not in values:
            values[lit_node(f1)] = b1
        if lit_is_compl(f0):
            b0 = manager.negate(b0)
        if lit_is_compl(f1):
            b1 = manager.negate(b1)
        values[n] = manager.apply_and(b0, b1)
    return values


def _resub_under_mspf(aig: Aig, window: Window, manager: BddManager,
                      all_bdds: Dict[int, int], node: int, mspf: int,
                      config: MspfConfig, stats: MspfStats) -> int:
    """Try constants and connectable existing nodes under the MSPF."""
    care = manager.negate(mspf)
    bdd_node = all_bdds[node]
    on_care = manager.apply_and(bdd_node, care)
    # Constants first: biggest wins.
    if on_care == FALSE:
        gain = try_replace(aig, node, lambda: 0, min_gain=1)
        if gain:
            return gain
    if manager.apply_and(manager.negate(bdd_node), care) == FALSE:
        gain = try_replace(aig, node, lambda: 1, min_gain=1)
        if gain:
            return gain
    # Many connectable candidates at once (BDD canonicity makes each check a
    # single AND + pointer compare); keep an irredundant subset ordered by
    # the reclaimable MFFC.
    candidates: List[Tuple[int, int]] = []  # (candidate literal, priority)
    for d in window.leaves + window.nodes:
        if d == node or aig.is_dead(d) or d not in all_bdds:
            continue
        bdd_d = all_bdds[d]
        if manager.apply_and(bdd_d, care) == on_care:
            candidates.append((lit(d), 0))
        elif manager.apply_and(manager.negate(bdd_d), care) == on_care:
            candidates.append((lit(d, True), 0))
        if len(candidates) >= config.max_connectable_fanins:
            break
    stats.connectable_found += len(candidates)
    for candidate, _priority in candidates:
        gain = try_replace(aig, node, lambda c=candidate: c, min_gain=1)
        if gain:
            return gain
    return 0
