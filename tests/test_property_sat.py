"""Property-based tests (hypothesis) for the SAT solver."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.solver import SatSolver


def clause_strategy(num_vars):
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))
    return st.lists(literal, min_size=1, max_size=3)


def formula_strategy(max_vars=7, max_clauses=24):
    return st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda n: st.tuples(
            st.lists(clause_strategy(n), min_size=0, max_size=max_clauses),
            st.just(n)))


def brute_force(clauses, num_vars):
    for bits in range(1 << num_vars):
        if all(any(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in clause)
               for clause in clauses):
            return True
    return False


@given(formula_strategy())
@settings(max_examples=150, deadline=None)
def test_solver_agrees_with_brute_force(spec):
    clauses, n = spec
    solver = SatSolver()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    result = solver.solve() if ok else False
    assert result == brute_force(clauses, n)
    if result:
        model = solver.model()
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


@given(formula_strategy(max_vars=6, max_clauses=15))
@settings(max_examples=60, deadline=None)
def test_assumptions_consistent_with_added_units(spec):
    """solve(assumptions) must agree with solving formula + unit clauses."""
    clauses, n = spec
    assumptions = (1, -2) if n >= 2 else (1,)
    incremental = SatSolver()
    ok1 = True
    for clause in clauses:
        ok1 = incremental.add_clause(clause) and ok1
    result_assume = incremental.solve(assumptions) if ok1 else False

    monolithic = SatSolver()
    ok2 = True
    for clause in list(clauses) + [[a] for a in assumptions]:
        ok2 = monolithic.add_clause(clause) and ok2
    result_units = monolithic.solve() if ok2 else False
    assert result_assume == result_units


@given(formula_strategy(max_vars=6, max_clauses=12))
@settings(max_examples=40, deadline=None)
def test_incremental_solving_stable(spec):
    """Repeated solves of the same formula give the same answer."""
    clauses, n = spec
    solver = SatSolver()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    if not ok:
        return
    first = solver.solve()
    assert solver.solve() == first
    assert solver.solve() == first


def literal_strategy(num_vars):
    return st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))


def steps_strategy(max_vars=6, max_steps=20):
    """Interleaved ``("clause", lits)`` and ``("solve", assumptions)``."""
    def steps(n):
        step = st.one_of(
            clause_strategy(n).map(lambda c: ("clause", c)),
            st.lists(literal_strategy(n), max_size=2).map(
                lambda a: ("solve", a)))
        return st.tuples(st.lists(step, max_size=max_steps), st.just(n))
    return st.integers(min_value=1, max_value=max_vars).flatmap(steps)


@given(steps_strategy())
@settings(max_examples=150, deadline=None)
def test_interleaved_add_clause_and_solve_agree_with_brute_force(spec):
    """Clauses added after a SAT answer count in full on the next solve."""
    steps, n = spec
    solver = SatSolver()
    clauses = []
    for kind, lits in steps:
        if kind == "clause":
            clauses.append(lits)
            if not solver.add_clause(lits):
                assert not brute_force(clauses, n)
            continue
        expected = brute_force(clauses + [[a] for a in lits], n)
        assert solver.solve(tuple(lits)) == expected
        if expected:
            model = solver.model()
            for clause in clauses + [[a] for a in lits]:
                assert any(model[abs(l)] == (l > 0) for l in clause)


def test_unit_added_after_sat_answer_is_kept():
    solver = SatSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve()
    x = solver.new_var()
    solver.add_clause([-x])
    assert not solver.solve((x,))


def test_unit_against_last_model_keeps_formula_satisfiable():
    solver = SatSolver()
    solver.add_clause([1, 2])
    assert solver.solve()
    true_var = 1 if solver.model_value(1) else 2
    assert solver.add_clause([-true_var])
    assert solver.solve()
    assert solver.model_value(3 - true_var)
