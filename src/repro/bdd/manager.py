"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

BDDs are the reasoning engine of the paper's two headline techniques: the
Boolean-difference resubstitution computes ``∂f/∂g`` as the XOR of two BDDs
(Alg. 1, line 4), and the MSPF engine ANDs per-output permissible-function
conditions (Section IV-C).  Both rely on *strong canonicity*: equal functions
are the same node, so functional filtering and the hash-table lookup of
Alg. 1 line 5 are pointer comparisons.

Design choices mirror the paper:

* **No variable reordering by default** — "we did not perform any BDD
  variables ordering, as we are dealing with small BDDs.  This saves runtime,
  but it requires a higher amount of memory" (Section III-C).
* **Node-limit bailout** — "we set a maximum memory limit for the employed
  BDD package.  The BDD computation is bailed out if the maximum memory limit
  is hit."  Exceeding :attr:`BddManager.node_limit` raises
  :class:`~repro.errors.BddLimitError`; callers treat the node as size 0.

Nodes are small integers; 0 and 1 are the terminals.  Every internal node
``n`` has ``var(n)``, ``low(n)`` (cofactor for var = 0) and ``high(n)``.
Complement edges are not used, keeping the package simple and obviously
correct; a NOT is a (memoized) traversal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import BddLimitError

FALSE = 0  #: terminal node for constant 0
TRUE = 1   #: terminal node for constant 1

#: Opcodes for the direct binary-operation cache (``_cache_op``).
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2

_NO_VAR = 10 ** 9  # pseudo variable level of terminals inside ite


class BddManager:
    """A unique-table based ROBDD manager with an optional node limit.

    Example
    -------
    >>> mgr = BddManager(num_vars=2)
    >>> x0, x1 = mgr.var(0), mgr.var(1)
    >>> f = mgr.apply_xor(x0, x1)
    >>> mgr.size(f)
    3
    """

    def __init__(self, num_vars: int = 0, node_limit: Optional[int] = None) -> None:
        self.node_limit = node_limit
        self._var: List[int] = [-1, -1]   # terminals carry pseudo-var -1
        self._low: List[int] = [-1, -1]
        self._high: List[int] = [-1, -1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._cache_ite: Dict[Tuple[int, int, int], int] = {}
        self._cache_not: Dict[int, int] = {}
        #: Direct binary-op computed table keyed ``(op, f, g)`` — answers
        #: repeated AND/OR/XOR requests without re-entering the ITE
        #: machinery at all.
        self._cache_op: Dict[Tuple[int, int, int], int] = {}
        self._vars: List[int] = []
        for _ in range(num_vars):
            self.new_var()

    # -- variables ------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._vars)

    def new_var(self) -> int:
        """Declare a new variable (appended last in the order); return its node."""
        index = len(self._vars)
        node = self._mk(index, FALSE, TRUE)
        self._vars.append(node)
        return node

    def var(self, index: int) -> int:
        """Node of variable *index*."""
        return self._vars[index]

    def nvar(self, index: int) -> int:
        """Node of the negated variable *index*."""
        return self._mk(index, TRUE, FALSE)

    # -- node accessors ---------------------------------------------------------

    def var_of(self, node: int) -> int:
        """Variable index tested at *node* (-1 for terminals)."""
        return self._var[node]

    def low(self, node: int) -> int:
        """Low (var = 0) child."""
        return self._low[node]

    def high(self, node: int) -> int:
        """High (var = 1) child."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        """True for the constant nodes."""
        return node <= 1

    @property
    def num_nodes(self) -> int:
        """Total nodes ever created (the manager's memory footprint)."""
        return len(self._var)

    # -- core construction ---------------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if self.node_limit is not None and len(self._var) >= self.node_limit:
            raise BddLimitError(
                f"BDD node limit of {self.node_limit} exceeded")
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        node = len(self._var) - 1
        self._unique[key] = node
        return node

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: the universal ternary BDD operator.

        Cofactoring and the top-variable selection are inlined, while the
        control flow stays that of the textbook recursion — low subproblem
        fully evaluated (including ``_mk`` allocations and cache writes)
        before the high one, parent combined last — so node ids, cache
        contents, and any :class:`~repro.errors.BddLimitError` fire at
        the same points as in the plain recursive formulation.  Recursion
        depth is bounded by the variable count (``top`` strictly
        increases), so plain recursion is safe and measurably cheaper than
        an explicit frame stack.
        """
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        cache = self._cache_ite
        key = (f, g, h)
        cached = cache.get(key)
        if cached is not None:
            return cached
        var = self._var
        low_of = self._low
        high_of = self._high
        vf = var[f]
        vg = var[g] if g > 1 else _NO_VAR
        vh = var[h] if h > 1 else _NO_VAR
        top = vf
        if vg < top:
            top = vg
        if vh < top:
            top = vh
        if vf == top:
            f0 = low_of[f]
            f1 = high_of[f]
        else:
            f0 = f1 = f
        if vg == top:
            g0 = low_of[g]
            g1 = high_of[g]
        else:
            g0 = g1 = g
        if vh == top:
            h0 = low_of[h]
            h1 = high_of[h]
        else:
            h0 = h1 = h
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(top, low, high)
        cache[key] = result
        return result

    # -- boolean operations -------------------------------------------------------

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction of two functions.

        Terminal short-circuits (all allocation-free in the plain
        ``ite(f, g, 0)`` formulation too) plus a direct ``(AND, f, g)``
        computed table in front of the ITE machinery.
        """
        if f == TRUE:
            return g
        if g == TRUE:
            return f
        if f == FALSE or g == FALSE:
            return FALSE
        if f == g:
            return f
        key = (_OP_AND, f, g)
        result = self._cache_op.get(key)
        if result is None:
            result = self.ite(f, g, FALSE)
            self._cache_op[key] = result
        return result

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction of two functions."""
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE:
            return g
        if g == FALSE:
            return f
        if f == g:
            return f
        key = (_OP_OR, f, g)
        result = self._cache_op.get(key)
        if result is None:
            result = self.ite(f, TRUE, g)
            self._cache_op[key] = result
        return result

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive-or — the paper's Boolean difference ``∂f/∂g = f ⊕ g``.

        Short-circuits are restricted to cases whose plain
        ``ite(f, ¬g, g)`` evaluation allocates exactly the same nodes
        (``f ⊕ 1`` builds the complement either way; ``0 ⊕ g`` is *not*
        short-circuited because the plain form eagerly builds ``¬g``
        first), keeping bailout behaviour under a node limit bit-identical.
        """
        if g == FALSE:
            return f
        if g == TRUE:
            return self.negate(f)
        if f == TRUE:
            return self.negate(g)
        key = (_OP_XOR, f, g)
        result = self._cache_op.get(key)
        if result is None:
            result = self.ite(f, self.negate(g), g)
            self._cache_op[key] = result
        return result

    def apply_xnor(self, f: int, g: int) -> int:
        """Equivalence of two functions."""
        return self.negate(self.apply_xor(f, g))

    def negate(self, f: int) -> int:
        """Complement of a function (memoized in both directions)."""
        if f == TRUE:
            return FALSE
        if f == FALSE:
            return TRUE
        cache = self._cache_not
        cached = cache.get(f)
        if cached is not None:
            return cached
        result = self._mk(self._var[f],
                          self.negate(self._low[f]),
                          self.negate(self._high[f]))
        cache[f] = result
        cache[result] = f
        return result

    def and_multi(self, nodes: Iterable[int]) -> int:
        """Conjunction of many functions."""
        acc = TRUE
        for n in nodes:
            acc = self.apply_and(acc, n)
            if acc == FALSE:
                return FALSE
        return acc

    def or_multi(self, nodes: Iterable[int]) -> int:
        """Disjunction of many functions."""
        acc = FALSE
        for n in nodes:
            acc = self.apply_or(acc, n)
            if acc == TRUE:
                return TRUE
        return acc

    # -- cofactoring and quantification ----------------------------------------------

    def cofactor(self, f: int, var: int, value: bool) -> int:
        """Shannon cofactor of *f* with respect to ``var = value``.

        This is the primitive of the MSPF computation: "the positive
        (negative) cofactor of the node w.r.t. each primary output is
        computed using BDDs" (Section IV-C).
        """
        return self._restrict(f, var, value, {})

    def _restrict(self, f: int, var: int, value: bool,
                  memo: Dict[int, int]) -> int:
        if f <= 1 or self._var[f] > var:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        if self._var[f] == var:
            result = self._high[f] if value else self._low[f]
        else:
            result = self._mk(self._var[f],
                              self._restrict(self._low[f], var, value, memo),
                              self._restrict(self._high[f], var, value, memo))
        memo[f] = result
        return result

    def exists(self, f: int, variables: Sequence[int]) -> int:
        """Existential quantification over a list of variable indices."""
        result = f
        for var in sorted(variables, reverse=True):
            result = self.apply_or(self.cofactor(result, var, False),
                                   self.cofactor(result, var, True))
        return result

    def forall(self, f: int, variables: Sequence[int]) -> int:
        """Universal quantification over a list of variable indices."""
        result = f
        for var in sorted(variables, reverse=True):
            result = self.apply_and(self.cofactor(result, var, False),
                                    self.cofactor(result, var, True))
        return result

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function *g* for variable *var* inside *f*."""
        return self.ite(g, self.cofactor(f, var, True),
                        self.cofactor(f, var, False))

    # -- queries -------------------------------------------------------------------

    def size(self, f: int) -> int:
        """Number of internal nodes of the BDD rooted at *f*.

        This is the quantity thresholded by Alg. 1 lines 8–10 ("we limit the
        size of the BDD ... Empirically, we found 10 to be a suitable
        tradeoff"); terminals count as zero.
        """
        if f <= 1:
            return 0
        seen: Set[int] = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            stack.append(self._low[n])
            stack.append(self._high[n])
        return len(seen)

    def support(self, f: int) -> List[int]:
        """Sorted variable indices *f* depends on."""
        seen: Set[int] = set()
        variables: Set[int] = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            variables.add(self._var[n])
            stack.append(self._low[n])
            stack.append(self._high[n])
        return sorted(variables)

    def satcount(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over *num_vars* variables."""
        n = num_vars if num_vars is not None else self.num_vars
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << n
        memo: Dict[int, int] = {}

        def var_of(node: int) -> int:
            return n if node <= 1 else self._var[node]

        def count(node: int) -> int:
            # Satisfying assignments over variables var_of(node) .. n-1.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            cached = memo.get(node)
            if cached is not None:
                return cached
            v = self._var[node]
            lo = count(self._low[node]) << (var_of(self._low[node]) - v - 1)
            hi = count(self._high[node]) << (var_of(self._high[node]) - v - 1)
            memo[node] = lo + hi
            return lo + hi

        return count(f) << self._var[f]

    def pick_cube(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment as ``{var: value}``; None when UNSAT."""
        if f == FALSE:
            return None
        cube: Dict[int, bool] = {}
        node = f
        while node > 1:
            if self._low[node] != FALSE:
                cube[self._var[node]] = False
                node = self._low[node]
            else:
                cube[self._var[node]] = True
                node = self._high[node]
        return cube

    def eval(self, f: int, assignment: Sequence[bool]) -> bool:
        """Evaluate *f* under a complete input assignment."""
        node = f
        while node > 1:
            node = (self._high[node] if assignment[self._var[node]]
                    else self._low[node])
        return node == TRUE

    def to_truth_bits(self, f: int, num_vars: int) -> int:
        """Expand *f* into a truth-table integer over *num_vars* variables.

        BDD variable *i* maps to truth-table variable *i* (bit *i* of the row
        index, matching :class:`repro.tt.TruthTable`).
        """
        from repro.tt.truthtable import table_mask, variable_table
        full = table_mask(num_vars)
        memo: Dict[int, int] = {FALSE: 0, TRUE: full}

        def walk(node: int) -> int:
            cached = memo.get(node)
            if cached is not None:
                return cached
            tv = variable_table(self._var[node], num_vars)
            result = (tv & walk(self._high[node])) | (~tv & full & walk(self._low[node]))
            memo[node] = result
            return result

        return walk(f)

    # -- maintenance ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop the operation caches (the unique table is preserved).

        The paper frees difference BDD memory "at each iteration" to keep the
        cavlc run convergent; per-partition managers plus this cache clearing
        reproduce that discipline.
        """
        self._cache_ite.clear()
        self._cache_not.clear()
        self._cache_op.clear()

    def reset_for_reuse(self, num_vars: int,
                        node_limit: Optional[int] = None) -> None:
        """Recycle this manager as an exact fresh-manager replacement.

        Restores the precise state ``BddManager(num_vars, node_limit)``
        construction would produce — terminals, then one variable node
        per index, nothing else — while keeping the already-grown list
        and dict *capacity*.  The unique table is deliberately **not**
        kept warm: :attr:`node_limit` counts cumulative allocations, so
        retained nodes would absorb part of a new client's allocation
        demand and shift :class:`~repro.errors.BddLimitError` bailout
        points — and bailout points are part of the engines'
        bit-identity contract.  After this call every subsequent
        allocation (and therefore every node id, cache entry, and
        bailout) replays a fresh manager exactly.
        """
        del self._var[2:]
        del self._low[2:]
        del self._high[2:]
        self._unique.clear()
        self.clear_caches()
        self._vars.clear()
        self.node_limit = node_limit
        for _ in range(num_vars):
            self.new_var()

    def __repr__(self) -> str:
        return f"BddManager(vars={self.num_vars}, nodes={self.num_nodes})"
