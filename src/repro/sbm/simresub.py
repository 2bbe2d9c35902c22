"""Simulation-guided Boolean resubstitution (the fifth SBM engine).

The paper's four Boolean engines all filter candidates with BDDs, which
bail out on the large arithmetic EPFL benchmarks (log2, mult, div,
hypotenuse).  Simulation-Guided Boolean Resubstitution (Lee et al.,
arXiv:2007.02579) is the scalable alternative this engine implements:

1. every node carries a **simulation signature** over a growing pattern
   set (:class:`repro.sbm.simpatterns.PatternStore`) — seeded random
   patterns plus every counterexample earlier proofs produced;
2. resubstitution candidates are proposed by **signature matching** only:
   constants (0 divisors), single wires (1 divisor, possibly inverted),
   and two-divisor AND/NAND/XOR/XNOR gates whose signature reproduces the
   target's — no BDDs anywhere;
3. each surviving candidate is **validated by SAT** on the window's
   incremental Tseitin encoding (:class:`repro.sat.cnf.AigCnf`) under a
   per-proof conflict budget;
4. a refuted proof's counterexample is fed back into the pattern store
   (the CEGAR loop): the refuted candidate can never be proposed again,
   and all later filtering is strictly stronger.

The engine runs under the :class:`repro.parallel.scheduler
.PartitionScheduler` like its four siblings: partitions are snapshot into
picklable sub-networks, the pass hands the scheduler its window worker
:func:`optimize_subaig`, a pure function of ``(sub-network, config)``
(the pattern seed travels in the config), and results merge in
deterministic partition order — ``jobs=N`` is bit-identical to
``jobs=1``.  The fields of :class:`SimresubStats` are the engine's one
list of counters, which the window payload, the pass's fold and the
``simresub.*`` metrics all read.  Signatures come from one pass of the
compiled simulation program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.aig.aig import Aig, lit, lit_notcond
from repro.opt.shared import try_replace
from repro.parallel.scheduler import PartitionScheduler
from repro.parallel.stats import (applied_counters, window_counters,
                                  worker_counters)
from repro.sat.cnf import AigCnf, sat_equal
from repro.sbm.config import SimresubConfig
from repro.sbm.simpatterns import PatternStore

#: AIG node cost of a two-input XOR (matches the Boolean-difference
#: engine's default ``xor_cost``): an XOR candidate must reclaim more.
_XOR_COST = 3

#: candidate tuples: ("const", literal) | ("wire", literal)
#: | ("and"/"xor", lit_a, lit_b, output_complemented)
Candidate = Tuple[Any, ...]


@dataclass
class SimresubStats:
    """Counters reported by one simulation-guided resubstitution pass."""

    partitions: int = 0
    nodes_processed: int = 0
    candidates_proposed: int = 0
    candidates_validated: int = 0
    candidates_refuted: int = 0
    sat_unknown: int = 0
    cex_patterns: int = 0
    rewrites: int = 0
    gain: int = 0


def simresub_pass(aig: Aig, config: Optional[SimresubConfig] = None,
                  scheduler: Optional[PartitionScheduler] = None
                  ) -> SimresubStats:
    """Run simulation-guided resubstitution over every partition; edits in
    place.

    Partitions are snapshot up front and optimized independently by
    *scheduler* — inline and in partition order without one, or on its
    pool, with its window timeout and fault plan — then spliced back in
    deterministic partition order, so the result is the same for every
    scheduler.  Unlike MSPF, no observability boundary is involved: every
    accepted rewrite preserves the replaced node's function exactly
    (SAT-proven over the window inputs), so window extraction never
    changes what is provable.
    """
    config = config or SimresubConfig()
    stats = (scheduler or PartitionScheduler()).run_pass(
        aig, "simresub", optimize_subaig, config,
        config.partition).fold(SimresubStats())
    obs.publish_counters("simresub", applied_counters(stats))
    return stats


def optimize_subaig(sub: Aig, config: Optional[SimresubConfig] = None
                    ) -> Tuple[bool, Optional[Aig], Dict[str, Any]]:
    """Worker entry point: CEGAR resubstitution on one extracted sub-AIG.

    Pure function of ``(sub, config)``: the pattern store is seeded from
    ``config.seed``, so two workers given the same window compute the same
    result.  Returns ``(changed, optimized sub-AIG or None, payload)``.
    """
    config = config or SimresubConfig()
    stats = SimresubStats()
    if sub.num_pis and sub.num_ands:
        optimize_network(sub, config, stats)
    payload = window_counters(stats)
    # The CEGAR loop's health indicators are reported even at zero — "no
    # candidate was refuted / no pattern was learned" is itself the answer
    # the report exists to give.  The worker's registry ships back in the
    # window payload, so ``simresub.*`` aggregates every window of the run;
    # the pass adds the applied ``rewrites`` and ``gain``.
    obs.publish_counters("simresub", worker_counters(payload), always=(
        "candidates_proposed", "candidates_validated",
        "candidates_refuted", "cex_patterns"))
    changed = stats.rewrites > 0
    return changed, (sub.cleanup() if changed else None), payload


class _SigState:
    """Current signatures + topological order of the window network.

    Refreshed after every accepted rewrite (node set changed) and every
    learned counterexample pattern (signature width changed).
    """

    def __init__(self, aig: Aig, store: PatternStore) -> None:
        self.aig = aig
        self.store = store
        self.values: List[int] = []
        self.order: List[int] = []
        self.position: Dict[int, int] = {}
        self.refresh()

    def refresh(self) -> None:
        self.values = self.store.signatures(self.aig)
        self.order = self.aig.topological_order()
        self.position = {n: i for i, n in enumerate(self.order)}


def optimize_network(aig: Aig, config: SimresubConfig,
                     stats: SimresubStats) -> None:
    """CEGAR resubstitution over one (sub-)network, edited in place."""
    store = PatternStore(aig.num_pis, num_words=config.pattern_words,
                         max_patterns=config.max_patterns, seed=config.seed)
    cnf = AigCnf(aig)
    sig = _SigState(aig, store)
    # Snapshot the target list: nodes created by rewrites are not
    # re-targeted within this pass (they will be next iteration).
    for n in list(sig.order):
        if aig.is_dead(n) or not aig.is_and(n):
            continue
        stats.nodes_processed += 1
        _resub_node(aig, n, sig, store, cnf, config, stats)


def _divisors(aig: Aig, sig: _SigState, n: int,
              max_divisors: int) -> List[int]:
    """Divisor nodes for target *n*: inputs plus topologically earlier
    gates — never in *n*'s transitive fanout, so no cycle is possible.
    Capped to the *nearest* ``max_divisors`` predecessors."""
    pos_n = sig.position[n]
    divs = [p for p in aig.pis()]
    divs.extend(m for m in sig.order[:pos_n] if not aig.is_dead(m))
    if len(divs) > max_divisors:
        divs = divs[-max_divisors:]
    return divs


def iter_candidates(aig: Aig, n: int, divisors: Sequence[int],
                    values: Sequence[int], mask: int, mffc: int,
                    config: SimresubConfig) -> Iterator[Candidate]:
    """Yield signature-matching resub candidates for *n*, best first.

    Every candidate agrees with *n* on **all** stored patterns; because
    the patterns are a subset of the input space, any truly equivalent
    resubstitution within the divisor/pair budgets is always yielded —
    signature filtering can produce false positives (killed later by
    SAT), never false negatives.
    """
    sn = values[n] & mask
    # 0 divisors: constants (always profitable: the whole MFFC goes).
    if sn == 0:
        yield ("const", 0)
    elif sn == mask:
        yield ("const", 1)
    # 1 divisor: a wire, possibly inverted.
    sigs = [values[d] & mask for d in divisors]
    for d, sd in zip(divisors, sigs):
        if sd == sn:
            yield ("wire", lit(d))
        elif sd ^ mask == sn:
            yield ("wire", lit(d, True))
    # 2 divisors: one new AND/NAND/XOR/XNOR gate.  Gated on the MFFC so a
    # provable candidate that cannot possibly yield gain is never proposed.
    if mffc < 2:
        return
    checks = 0
    want_xor = mffc > _XOR_COST
    for i in range(len(divisors)):
        si = sigs[i]
        for j in range(i + 1, len(divisors)):
            checks += 1
            if checks > config.max_pair_checks:
                return
            sj = sigs[j]
            for ca in (False, True):
                va = si ^ mask if ca else si
                for cb in (False, True):
                    vb = sj ^ mask if cb else sj
                    t = va & vb
                    if t == sn:
                        yield ("and", lit(divisors[i], ca),
                               lit(divisors[j], cb), False)
                    elif t ^ mask == sn:
                        yield ("and", lit(divisors[i], ca),
                               lit(divisors[j], cb), True)
            if want_xor:
                x = si ^ sj
                if x == sn:
                    yield ("xor", lit(divisors[i]), lit(divisors[j]), False)
                elif x ^ mask == sn:
                    yield ("xor", lit(divisors[i]), lit(divisors[j]), True)


def _validate(cnf: AigCnf, n: int, cand: Candidate, conflict_limit: int
              ) -> Tuple[Optional[bool], Optional[List[bool]]]:
    """SAT-prove ``node n == candidate function`` on the window inputs.

    Returns ``(True, None)`` proven, ``(False, counterexample)`` refuted,
    ``(None, None)`` when the conflict budget ran out (candidate is then
    simply skipped — never trusted).
    """
    solver = cnf.solver
    sn = cnf.sat_literal(lit(n))
    kind = cand[0]
    if kind == "const":
        # n == const c  <=>  SAT(n != c) is UNSAT: one assumption query.
        probe = sn if cand[1] == 0 else -sn
        res = solver.solve_limited((probe,), conflict_limit)
        if res is None:
            return None, None
        if res:
            return False, cnf.extract_pi_assignment()
        return True, None
    if kind == "wire":
        g = cnf.sat_literal(cand[1])
    else:
        # Encode the tentative gate as a fresh definitional variable —
        # never as AIG nodes, so a refuted candidate leaves no garbage
        # logic (and no stale CNF) behind.
        a = cnf.sat_literal(cand[1])
        b = cnf.sat_literal(cand[2])
        t = solver.new_var()
        if kind == "and":
            solver.add_clause([-t, a])
            solver.add_clause([-t, b])
            solver.add_clause([t, -a, -b])
        else:  # xor
            solver.add_clause([-t, a, b])
            solver.add_clause([-t, -a, -b])
            solver.add_clause([t, a, -b])
            solver.add_clause([t, -a, b])
        g = -t if cand[3] else t
    verdict = sat_equal(solver, g, sn, conflict_limit)
    if verdict is False:
        return False, cnf.extract_pi_assignment()
    return verdict, None


def _builder(aig: Aig, cand: Candidate):
    """Zero-argument replacement builder for :func:`try_replace`."""
    kind = cand[0]
    if kind in ("const", "wire"):
        return lambda: cand[1]
    if kind == "and":
        return lambda: lit_notcond(aig.add_and(cand[1], cand[2]), cand[3])
    return lambda: lit_notcond(aig.add_xor(cand[1], cand[2]), cand[3])


def _resub_node(aig: Aig, n: int, sig: _SigState, store: PatternStore,
                cnf: AigCnf, config: SimresubConfig,
                stats: SimresubStats) -> int:
    """The per-node CEGAR loop; returns the achieved gain (0 = none).

    Terminates because every turn either (a) returns, (b) learns a fresh
    pattern (bounded by ``store.max_patterns``; a refuted candidate then
    stops signature-matching, so it is never re-proposed), or (c) adds
    the candidate to *tried* (bounded by the finite candidate space).
    """
    tried: Set[Candidate] = set()
    while True:
        if aig.is_dead(n) or not aig.is_and(n):
            return 0
        divisors = _divisors(aig, sig, n, config.max_divisors)
        mffc = aig.mffc_size(n)
        cand = next(
            (c for c in iter_candidates(aig, n, divisors, sig.values,
                                        store.mask, mffc, config)
             if c not in tried), None)
        if cand is None:
            return 0
        stats.candidates_proposed += 1
        verdict, cex = _validate(cnf, n, cand, config.sat_conflict_budget)
        if verdict is None:
            stats.sat_unknown += 1
            tried.add(cand)
            continue
        if not verdict:
            stats.candidates_refuted += 1
            assert cex is not None
            if not store.add_pattern(cex):
                # Pattern budget exhausted: without a growing filter the
                # refuted candidate would be re-proposed forever.
                return 0
            stats.cex_patterns += 1
            sig.refresh()
            continue
        stats.candidates_validated += 1
        gain = try_replace(aig, n, _builder(aig, cand), min_gain=1)
        if gain:
            stats.rewrites += 1
            stats.gain += gain
            sig.refresh()
            return gain
        tried.add(cand)
