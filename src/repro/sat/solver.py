"""A CDCL SAT solver.

SAT is the third reasoning engine of Section II-A; the SBM flow uses it for
"SAT-based sweeping and redundancy removal as in [9]" (Section V-A).  This is
a from-scratch conflict-driven clause-learning solver with:

* two-watched-literal propagation,
* first-UIP conflict analysis with clause minimization,
* VSIDS-style activity decay and phase saving,
* Luby restarts and learned-clause garbage collection,
* incremental solving under assumptions.

Variables are positive integers; literals follow the DIMACS convention
(negative integer = negated variable).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SatError

TRUE = 1
FALSE = 0
UNASSIGNED = 2


class SatSolver:
    """Conflict-driven clause-learning solver with assumptions.

    Example
    -------
    >>> solver = SatSolver()
    >>> solver.add_clause([1, 2])
    >>> solver.add_clause([-1])
    >>> solver.solve()
    True
    >>> solver.model_value(2)
    True
    """

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        self._watches: Dict[int, List[List[int]]] = {}
        self._assign: List[int] = [UNASSIGNED]  # 1-indexed
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._ok = True
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0

    # -- problem construction ---------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) index."""
        self._num_vars += 1
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        return self._num_vars

    def ensure_var(self, var: int) -> None:
        """Grow the variable table so that *var* is valid."""
        while self._num_vars < var:
            self.new_var()

    @property
    def num_vars(self) -> int:
        """Number of allocated variables."""
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False when the formula became trivially UNSAT.

        Clauses are added at decision level 0: a model left on the trail by
        the last :meth:`solve` is discarded first, so read it before adding.
        """
        if not self._ok:
            return False
        self._backtrack(0)
        clause: List[int] = []
        seen = set()
        for literal in literals:
            if literal == 0:
                raise SatError("literal 0 is not allowed")
            self.ensure_var(abs(literal))
            if -literal in seen:
                return True  # tautology
            if literal in seen:
                continue
            # Skip literals already falsified at level 0; satisfied ⇒ drop clause.
            value = self._lit_value(literal)
            if value == TRUE and self._level[abs(literal)] == 0:
                return True
            if value == FALSE and self._level[abs(literal)] == 0:
                continue
            seen.add(literal)
            clause.append(literal)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        self._clauses.append(clause)
        self._watch_clause(clause)
        return True

    # -- solving -----------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under optional *assumptions*.

        Returns True (SAT — model available via :meth:`model_value`) or
        False (UNSAT under the assumptions).
        """
        result = self.solve_limited(assumptions)
        assert result is not None  # no budget, so always a verdict
        return result

    def solve_limited(self, assumptions: Sequence[int] = (),
                      conflict_limit: Optional[int] = None) -> Optional[bool]:
        """Like :meth:`solve`, but give up after *conflict_limit* conflicts.

        Returns ``True`` (SAT), ``False`` (UNSAT under the assumptions), or
        ``None`` when the conflict budget ran out before a verdict.  The
        solver state (learned clauses included) stays valid for further
        calls, so a budgeted caller can retry or move on — the SBM
        simulation-guided resubstitution engine uses this to bound each
        candidate proof.
        """
        if not self._ok:
            return False
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        restart_count = 0
        conflict_budget = 64 * _luby(restart_count)
        conflicts_here = 0
        conflicts_total = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.num_conflicts += 1
                conflicts_here += 1
                conflicts_total += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return False
                if self._decision_level() <= len(assumptions):
                    # Conflict forced by assumptions alone.
                    self._backtrack(0)
                    return False
                learned, backtrack_level = self._analyze(conflict)
                self._backtrack(max(backtrack_level, 0))
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._ok = False
                        return False
                else:
                    self._learned.append(learned)
                    self._watch_clause(learned)
                    self._enqueue(learned[0], learned)
                self._decay_activities()
                if conflict_limit is not None \
                        and conflicts_total >= conflict_limit:
                    self._backtrack(0)
                    return None
                continue
            if conflicts_here >= conflict_budget:
                # Restart, keeping learned clauses.
                restart_count += 1
                conflict_budget = 64 * _luby(restart_count)
                conflicts_here = 0
                self._backtrack(0)
                continue
            # Apply assumptions in order before free decisions.
            level = self._decision_level()
            if level < len(assumptions):
                literal = assumptions[level]
                self.ensure_var(abs(literal))
                value = self._lit_value(literal)
                if value == TRUE:
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == FALSE:
                    self._backtrack(0)
                    return False
                self._trail_lim.append(len(self._trail))
                self._enqueue(literal, None)
                continue
            literal = self._pick_branch()
            if literal is None:
                return True
            self.num_decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(literal, None)

    def model_value(self, var: int) -> bool:
        """Value of *var* in the last satisfying assignment."""
        if var > self._num_vars:
            return False
        value = self._assign[var]
        return value == TRUE

    def model(self) -> List[bool]:
        """The full model as a list indexed by variable (index 0 unused)."""
        return [self._assign[v] == TRUE for v in range(self._num_vars + 1)]

    # -- internals ------------------------------------------------------------------

    def _lit_value(self, literal: int) -> int:
        value = self._assign[abs(literal)]
        if value == UNASSIGNED:
            return UNASSIGNED
        if literal > 0:
            return value
        return TRUE if value == FALSE else FALSE

    def _watch_clause(self, clause: List[int]) -> None:
        self._watches.setdefault(-clause[0], []).append(clause)
        self._watches.setdefault(-clause[1], []).append(clause)

    def _enqueue(self, literal: int, reason: Optional[List[int]]) -> bool:
        value = self._lit_value(literal)
        if value == FALSE:
            return False
        if value == TRUE:
            return True
        var = abs(literal)
        self._assign[var] = TRUE if literal > 0 else FALSE
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._phase[var] = literal > 0
        self._trail.append(literal)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _propagate(self) -> Optional[List[int]]:
        while self._qhead < len(self._trail):
            literal = self._trail[self._qhead]
            self._qhead += 1
            self.num_propagations += 1
            watch_list = self._watches.get(literal)
            if not watch_list:
                continue
            new_list: List[List[int]] = []
            conflict: Optional[List[int]] = None
            index = 0
            while index < len(watch_list):
                clause = watch_list[index]
                index += 1
                # Normalize: watched literals are clause[0] and clause[1].
                if clause[0] == -literal:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._lit_value(clause[0]) == TRUE:
                    new_list.append(clause)
                    continue
                # Look for a replacement watch.
                found = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(-clause[1], []).append(clause)
                        found = True
                        break
                if found:
                    continue
                new_list.append(clause)
                if not self._enqueue(clause[0], clause):
                    conflict = clause
                    new_list.extend(watch_list[index:])
                    break
            self._watches[literal] = new_list
            if conflict is not None:
                return conflict
        return None

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learned clause, backtrack level)."""
        learned: List[int] = []
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal = None
        reason: List[int] = list(conflict)
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()
        while True:
            for q in reason:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_activity(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            literal = self._trail[trail_index]
            var = abs(literal)
            seen[var] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            clause_reason = self._reason[var]
            reason = [q for q in clause_reason if abs(q) != var] if clause_reason else []
        learned = [-literal] + learned
        # Clause minimization: drop literals implied by the rest.
        learned = self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0
        # Second-highest level determines the backtrack point.
        levels = sorted((self._level[abs(q)] for q in learned[1:]), reverse=True)
        backtrack = levels[0]
        # Move a literal of the backtrack level to position 1 for watching.
        for k in range(1, len(learned)):
            if self._level[abs(learned[k])] == backtrack:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, backtrack

    def _minimize(self, learned: List[int], seen: List[bool]) -> List[int]:
        marked = set(abs(q) for q in learned)
        kept = [learned[0]]
        for q in learned[1:]:
            reason = self._reason[abs(q)]
            if reason is None:
                kept.append(q)
                continue
            if all(abs(r) in marked or self._level[abs(r)] == 0
                   for r in reason if abs(r) != abs(q)):
                continue  # dominated: implied by other learned literals
            kept.append(q)
        return kept

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for literal in reversed(self._trail[limit:]):
            var = abs(literal)
            self._assign[var] = UNASSIGNED
            self._reason[var] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    def _pick_branch(self) -> Optional[int]:
        best_var = None
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == UNASSIGNED and self._activity[var] > best_activity:
                best_activity = self._activity[var]
                best_var = var
        if best_var is None:
            return None
        return best_var if self._phase[best_var] else -best_var

    def _bump_activity(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay


def _luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed."""
    # Port of MiniSat's luby() with unit base.
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq
