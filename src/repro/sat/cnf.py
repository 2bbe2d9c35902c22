"""CNF encodings of AIGs (Tseitin transformation) and miter construction.

These encodings back the SAT-based steps of the SBM flow (Section V-A):
equivalence checking of optimized networks, SAT sweeping, and redundancy
removal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.aig.aig import Aig, lit_is_compl, lit_node
from repro.sat.solver import SatSolver


class AigCnf:
    """Incremental Tseitin encoding of an AIG into a :class:`SatSolver`.

    Each live AIG node gets one SAT variable; AND gates produce the three
    standard clauses.  The encoding is lazy: only the cones of requested
    literals are encoded, so sweeping many small queries stays cheap.
    """

    def __init__(self, aig: Aig, solver: Optional[SatSolver] = None) -> None:
        self.aig = aig
        self.solver = solver if solver is not None else SatSolver()
        self._node_var: Dict[int, int] = {}
        self._const_var: Optional[int] = None

    def sat_literal(self, aig_literal: int) -> int:
        """SAT (DIMACS) literal encoding an AIG literal, encoding its cone."""
        node = lit_node(aig_literal)
        var = self._encode_node(node)
        return -var if lit_is_compl(aig_literal) else var

    def _encode_node(self, node: int) -> int:
        cached = self._node_var.get(node)
        if cached is not None:
            return cached
        if node == 0:
            var = self.solver.new_var()
            self.solver.add_clause([-var])  # constant FALSE
            self._node_var[0] = var
            return var
        if self.aig.is_pi(node):
            var = self.solver.new_var()
            self._node_var[node] = var
            return var
        stack = [node]
        while stack:
            n = stack[-1]
            if n in self._node_var:
                stack.pop()
                continue
            f0, f1 = self.aig.fanins(n)
            pending = [lit_node(f) for f in (f0, f1)
                       if lit_node(f) not in self._node_var]
            if pending:
                for p in pending:
                    if p == 0 or self.aig.is_pi(p):
                        self._encode_node(p)
                    else:
                        stack.append(p)
                continue
            var = self.solver.new_var()
            self._node_var[n] = var
            a = self._fanin_sat_lit(f0)
            b = self._fanin_sat_lit(f1)
            # var <-> a & b
            self.solver.add_clause([-var, a])
            self.solver.add_clause([-var, b])
            self.solver.add_clause([var, -a, -b])
            stack.pop()
        return self._node_var[node]

    def _fanin_sat_lit(self, aig_literal: int) -> int:
        var = self._node_var[lit_node(aig_literal)]
        return -var if lit_is_compl(aig_literal) else var

    def pi_var(self, pi_index: int) -> int:
        """SAT variable of the *pi_index*-th primary input."""
        return self._encode_node(self.aig.pis()[pi_index])

    def extract_pi_assignment(self) -> List[bool]:
        """PI values of the current model (False for unencoded PIs)."""
        out = []
        for node in self.aig.pis():
            var = self._node_var.get(node)
            out.append(self.solver.model_value(var) if var else False)
        return out


def sat_equal(solver: SatSolver, x: int, y: int,
              conflicts: Optional[int] = None) -> Optional[bool]:
    """The two-polarity SAT equality check of two SAT literals.

    Asks ``x & ~y``, then ``~x & y``, each within *conflicts* conflicts
    (``None``: no limit).  Returns ``True`` when both are UNSAT, ``False``
    when one is satisfiable (the solver's model then separates the two),
    and ``None`` when a query ran out of conflicts first.  Only ``True``
    is a proof.  SAT sweeping, the CEC miter sweep and simresub's
    candidate validation all prove through here, each with its own budget.
    """
    for query in ((x, -y), (-x, y)):
        found = solver.solve_limited(query, conflicts)
        if found is not False:
            return None if found is None else False
    return True


def prove_equivalent(cnf: AigCnf, lit_a: int, lit_b: int
                     ) -> Tuple[bool, Optional[List[bool]]]:
    """Check two AIG literals for functional equivalence, with no limit.

    Returns ``(True, None)`` when equivalent, or ``(False, counterexample)``
    with the distinguishing PI assignment.
    """
    if sat_equal(cnf.solver, cnf.sat_literal(lit_a), cnf.sat_literal(lit_b)):
        return True, None
    return False, cnf.extract_pi_assignment()


def build_miter(aig_a: Aig, aig_b: Aig) -> Aig:
    """Combinational miter of two networks with identical PI/PO counts.

    The miter's single output is 1 iff some PO differs under the shared
    inputs — UNSAT miter ⇔ networks equivalent (the "industrial formal
    equivalence checking" step of Section V-C).
    """
    if aig_a.num_pis != aig_b.num_pis or aig_a.num_pos != aig_b.num_pos:
        raise ValueError("miter requires matching interfaces")
    miter = Aig(f"miter({aig_a.name},{aig_b.name})")
    pis = [miter.add_pi(aig_a.pi_name(i)) for i in range(aig_a.num_pis)]
    outs_a = _copy_into(aig_a, miter, pis)
    outs_b = _copy_into(aig_b, miter, pis)
    diffs = [miter.add_xor(x, y) for x, y in zip(outs_a, outs_b)]
    miter.add_po(miter.add_or_multi(diffs), "diff")
    return miter


def _copy_into(src: Aig, dst: Aig, pi_literals: List[int]) -> List[int]:
    from repro.aig.aig import lit_notcond
    mapping: Dict[int, int] = {0: 0}
    for node, literal in zip(src.pis(), pi_literals):
        mapping[node] = literal
    for n in src.topological_order():
        f0, f1 = src.fanins(n)
        a = lit_notcond(mapping[lit_node(f0)], lit_is_compl(f0))
        b = lit_notcond(mapping[lit_node(f1)], lit_is_compl(f1))
        mapping[n] = dst.add_and(a, b)
    outs = []
    for po in src.pos():
        outs.append(lit_notcond(mapping[lit_node(po)], lit_is_compl(po)))
    return outs
