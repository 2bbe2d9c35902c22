"""Core And-Inverter Graph (AIG) data structure.

The AIG is the central logic representation of the SBM framework: every
optimization engine in the paper consumes and produces AIGs ("after each
transformation, the logic network is translated into an AIG in order to have
a consistent interface", Section V-A).

Representation
--------------
Nodes are integers.  Node ``0`` is the constant-FALSE node; primary inputs
and two-input AND gates follow.  Edges are *literals*: ``lit = 2 * node + c``
where ``c = 1`` encodes an inverter on the edge (the dashed edges of Fig. 1
in the paper).  This is the AIGER convention, so ``lit ^ 1`` complements an
edge and ``lit >> 1`` recovers the node.

The graph is *editable*: :meth:`Aig.replace` redirects all fanouts of a node
to another literal, merging structurally identical gates and propagating
constants, exactly the primitive needed by resubstitution-style engines
(Alg. 2 line 14, "Change f with diff in N").  Structural hashing (strashing)
is maintained incrementally, and reference counts track dangling logic so
that Maximum Fanout-Free Cones (MFFCs) can be measured cheaply.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AigError

# Public literal helpers -----------------------------------------------------

CONST0 = 0  #: literal for the constant-FALSE function
CONST1 = 1  #: literal for the constant-TRUE function


def lit(node: int, complemented: bool = False) -> int:
    """Build the literal pointing at *node*, optionally complemented."""
    return 2 * node + (1 if complemented else 0)


def lit_node(literal: int) -> int:
    """Return the node a literal points at."""
    return literal >> 1


def lit_is_compl(literal: int) -> bool:
    """Return ``True`` if the literal carries an inverter."""
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    """Complement a literal."""
    return literal ^ 1


def lit_notcond(literal: int, condition: bool) -> int:
    """Complement a literal iff *condition* is true."""
    return literal ^ 1 if condition else literal


class Aig:
    """A structurally hashed, editable And-Inverter Graph.

    Example
    -------
    >>> aig = Aig()
    >>> a, b = aig.add_pi("a"), aig.add_pi("b")
    >>> f = aig.add_and(a, lit_not(b))
    >>> aig.add_po(f, "f")
    0
    >>> aig.num_ands
    1
    """

    #: Process-wide monotonic source of network generations.  Every edit
    #: stamps the network with a *globally unique* generation, so anything
    #: cached against a generation (the compiled simulation program of
    #: :mod:`repro.aig.simprogram`) can never be confused between two
    #: network objects — even after wholesale ``__dict__`` swaps.
    _gen_source = count(1)

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self._generation = next(Aig._gen_source)
        # Parallel node arrays.  Node 0 is the constant node.
        self._fanin0: List[int] = [-1]
        self._fanin1: List[int] = [-1]
        self._nrefs: List[int] = [0]
        self._dead: List[bool] = [False]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []          # literals
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[int, int], int] = {}
        self._fanouts: List[List[int]] = [[]]  # AND-node fanouts only
        # Topological rank: 0 for the constant and the PIs; every live AND
        # ranks above both of its fanins.  An upper bound kept by
        # _new_node and _patch_fanin, never a level (ranks only grow).
        self._rank: List[int] = [0]
        self._n_dead_ands = 0

    # -- construction --------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its (positive) literal."""
        node = self._new_node(-1, -1)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return lit(node)

    def add_pis(self, count: int, prefix: str = "x") -> List[int]:
        """Create *count* primary inputs named ``{prefix}{i}``."""
        return [self.add_pi(f"{prefix}{i}") for i in range(count)]

    def add_po(self, literal: int, name: Optional[str] = None) -> int:
        """Register *literal* as a primary output; return the PO index."""
        self._check_lit(literal)
        self._pos.append(literal)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        self._ref_lit(literal)
        self._touch()
        return len(self._pos) - 1

    def set_po(self, index: int, literal: int) -> None:
        """Redirect PO *index* to a new literal, updating reference counts."""
        self._check_lit(literal)
        old = self._pos[index]
        self._pos[index] = literal
        self._ref_lit(literal)
        self._deref_lit(old)
        self._touch()

    def add_and(self, a: int, b: int) -> int:
        """Return the literal of ``a AND b``, creating a node if needed.

        Applies constant propagation and the trivial identities
        ``x*x = x`` and ``x*!x = 0`` before consulting the strash table.
        """
        self._check_lit(a)
        self._check_lit(b)
        if a > b:
            a, b = b, a
        if a == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return CONST0
        key = (a, b)
        node = self._strash.get(key)
        if node is not None and not self._dead[node]:
            return lit(node)
        node = self._new_node(a, b)
        self._strash[key] = node
        self._ref_lit(a)
        self._ref_lit(b)
        self._fanouts[lit_node(a)].append(node)
        self._fanouts[lit_node(b)].append(node)
        return lit(node)

    # Convenience gates, all expressed over AND/NOT.

    def add_or(self, a: int, b: int) -> int:
        """Return the literal of ``a OR b``."""
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_xor(self, a: int, b: int) -> int:
        """Return the literal of ``a XOR b`` (two AND nodes)."""
        return lit_not(self.add_and(lit_not(self.add_and(a, lit_not(b))),
                                    lit_not(self.add_and(lit_not(a), b))))

    def add_mux(self, sel: int, t: int, e: int) -> int:
        """Return the literal of ``sel ? t : e``."""
        return lit_not(self.add_and(lit_not(self.add_and(sel, t)),
                                    lit_not(self.add_and(lit_not(sel), e))))

    def add_maj(self, a: int, b: int, c: int) -> int:
        """Return the literal of the majority of three literals."""
        return self.add_or(self.add_and(a, b),
                           self.add_or(self.add_and(a, c), self.add_and(b, c)))

    def add_and_multi(self, literals: Sequence[int]) -> int:
        """Balanced AND over a sequence of literals (CONST1 when empty)."""
        return self._reduce_balanced(list(literals), self.add_and, CONST1)

    def add_or_multi(self, literals: Sequence[int]) -> int:
        """Balanced OR over a sequence of literals (CONST0 when empty)."""
        return self._reduce_balanced(list(literals), self.add_or, CONST0)

    def add_xor_multi(self, literals: Sequence[int]) -> int:
        """Balanced XOR over a sequence of literals (CONST0 when empty)."""
        return self._reduce_balanced(list(literals), self.add_xor, CONST0)

    def _reduce_balanced(self, lits: List[int], op, empty: int) -> int:
        if not lits:
            return empty
        while len(lits) > 1:
            nxt = [op(lits[i], lits[i + 1]) for i in range(0, len(lits) - 1, 2)]
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    # -- structure queries ----------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic, globally unique stamp of the network's current shape.

        Any structural edit — node creation, PO changes, fanin patches,
        node deaths — advances it, invalidating generation-keyed caches
        (notably the compiled :class:`~repro.aig.simprogram.SimProgram`).
        """
        return self._generation

    def _touch(self) -> None:
        """Advance the generation after a structural edit."""
        self._generation = next(Aig._gen_source)

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def num_ands(self) -> int:
        """Number of live AND nodes — the *size* of the network."""
        return len(self._fanin0) - 1 - len(self._pis) - self._n_dead_ands

    @property
    def size(self) -> int:
        """Alias for :attr:`num_ands` (the paper's "size")."""
        return self.num_ands

    @property
    def max_node(self) -> int:
        """Largest node id ever allocated (dead nodes included)."""
        return len(self._fanin0) - 1

    def pis(self) -> List[int]:
        """Node ids of the primary inputs, in declaration order."""
        return list(self._pis)

    def pi_literals(self) -> List[int]:
        """Positive literals of the primary inputs, in declaration order."""
        return [lit(n) for n in self._pis]

    def pos(self) -> List[int]:
        """PO literals in declaration order."""
        return list(self._pos)

    def pi_name(self, index: int) -> str:
        """Name of the *index*-th primary input."""
        return self._pi_names[index]

    def po_name(self, index: int) -> str:
        """Name of the *index*-th primary output."""
        return self._po_names[index]

    def copy_labels(self, other: "Aig") -> None:
        """Take the network, PI and PO names of *other* (same interface)."""
        self.name = other.name
        self._pi_names = list(other._pi_names)
        self._po_names = list(other._po_names)

    def is_const(self, node: int) -> bool:
        """True iff *node* is the constant node."""
        return node == 0

    def is_pi(self, node: int) -> bool:
        """True iff *node* is a primary input."""
        return self._fanin0[node] == -1 and node != 0

    def is_and(self, node: int) -> bool:
        """True iff *node* is a live AND gate."""
        return self._fanin0[node] >= 0 and not self._dead[node]

    def is_dead(self, node: int) -> bool:
        """True iff *node* has been removed by editing."""
        return self._dead[node]

    def fanin0(self, node: int) -> int:
        """First fanin literal of an AND node."""
        return self._fanin0[node]

    def fanin1(self, node: int) -> int:
        """Second fanin literal of an AND node."""
        return self._fanin1[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        """Both fanin literals of an AND node."""
        return self._fanin0[node], self._fanin1[node]

    def ref_count(self, node: int) -> int:
        """Number of references (fanouts plus PO uses) of *node*."""
        return self._nrefs[node]

    def fanout_nodes(self, node: int) -> List[int]:
        """Live AND nodes that use *node* as a fanin."""
        seen = set()
        out = []
        for t in self._fanouts[node]:
            if t in seen or self._dead[t]:
                continue
            if lit_node(self._fanin0[t]) == node or lit_node(self._fanin1[t]) == node:
                seen.add(t)
                out.append(t)
        if len(out) != len(self._fanouts[node]):
            self._fanouts[node] = list(out)
        return out

    def depends_on(self, node: int, target: int) -> bool:
        """True iff *target* lies in the transitive fan-in of *node*, *node*
        itself included (the predicate ``target in transitive_fanin(aig,
        [node])``).

        This is the cycle guard of the local moves.  It expands only live
        ANDs ranked above *target*: every live AND ranks above its fanins,
        so a node ranked at or below *target* cannot reach it.
        """
        if node == target:
            return True
        rank, fanin0, fanin1, dead = (self._rank, self._fanin0,
                                      self._fanin1, self._dead)
        bound = rank[target]
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if rank[n] <= bound or dead[n] or n in seen:
                continue
            seen.add(n)
            for f in (fanin0[n] >> 1, fanin1[n] >> 1):
                if f == target:
                    return True
                stack.append(f)
        return False

    def nodes(self) -> Iterator[int]:
        """All live nodes (constant, PIs and ANDs) in id order."""
        for node in range(len(self._fanin0)):
            if not self._dead[node]:
                yield node

    def ands(self) -> Iterator[int]:
        """All live AND nodes in id order (not necessarily topological)."""
        for node in range(len(self._fanin0)):
            if self._fanin0[node] >= 0 and not self._dead[node]:
                yield node

    # -- editing ---------------------------------------------------------------

    def replace(self, node: int, new_lit: int) -> None:
        """Redirect every use of *node* (fanouts and POs) to *new_lit*.

        This is the transformation primitive of every SBM engine: once a
        cheaper implementation of a node's function is built, ``replace``
        splices it in, merges any gates that become structurally identical,
        propagates constants, and dereferences the logic that became
        dangling (the node's MFFC).

        The caller must guarantee that *new_lit*'s cone does not contain
        *node* (``not depends_on(lit_node(new_lit), node)``), otherwise a
        combinational cycle would be created.
        """
        self._check_lit(new_lit)
        if not self.is_and(node) and not self.is_pi(node):
            raise AigError(f"cannot replace node {node}")
        if lit_node(new_lit) == node:
            raise AigError("self-replacement")
        # Every queued replacement literal carries a protective reference
        # taken at queue time: a cascade kill triggered while the entry
        # waits must not collect the node it points at, or a live gate
        # would end up with a dead fanin.
        worklist: List[Tuple[int, int]] = [(node, new_lit)]
        self._ref_lit(new_lit)
        self._touch()
        while worklist:
            old_node, repl = worklist.pop()
            if self._dead[old_node] or lit_node(repl) == old_node:
                self._deref_lit(repl)
                continue
            for idx, po in enumerate(self._pos):
                if lit_node(po) == old_node:
                    self._pos[idx] = lit_notcond(repl, lit_is_compl(po))
                    self._ref_lit(self._pos[idx])
                    self._nrefs[old_node] -= 1
            for target in list(self.fanout_nodes(old_node)):
                if self._dead[target]:
                    continue
                merged = self._patch_fanin(target, old_node, repl)
                if merged is not None:
                    # _patch_fanin returned the literal already carrying the
                    # protective reference for this queue entry.
                    worklist.append((target, merged))
            # Collect the old cone, then drop the protective reference.
            if self.is_and(old_node):
                self._kill_if_dangling(old_node)
            self._deref_lit(repl)

    def _patch_fanin(self, target: int, old_node: int, repl: int) -> Optional[int]:
        """Rewrite *target*'s fanin literals that point at *old_node*.

        Returns a literal the *target itself* must be replaced with when the
        patched gate simplifies to a constant/copy or merges with an existing
        strashed gate; ``None`` when the target was updated in place.  A
        returned literal carries one protective reference (taken *before*
        the old fanins are dereferenced, whose kill cascade could otherwise
        collect it); the caller's worklist processing releases it.
        """
        f0, f1 = self._fanin0[target], self._fanin1[target]
        self._touch()
        self._strash.pop(self._strash_key(f0, f1), None)
        n0 = lit_notcond(repl, lit_is_compl(f0)) if lit_node(f0) == old_node else f0
        n1 = lit_notcond(repl, lit_is_compl(f1)) if lit_node(f1) == old_node else f1
        if n0 > n1:
            n0, n1 = n1, n0
        # Trivial simplifications after patching.
        simplified: Optional[int] = None
        if n0 == CONST0 or n0 == lit_not(n1):
            simplified = CONST0
        elif n0 == CONST1 or n0 == n1:
            simplified = n1
        if simplified is None:
            existing = self._strash.get((n0, n1))
            if existing is not None and not self._dead[existing] and existing != target:
                simplified = lit(existing)
        # Update fanin refs: protect everything the patched gate (or its
        # pending merge) will point at before releasing the old fanins —
        # the release can cascade kills through shared cones.
        if simplified is not None:
            self._ref_lit(simplified)
        self._ref_lit(n0)
        self._ref_lit(n1)
        self._deref_lit(f0)
        self._deref_lit(f1)
        if simplified is not None:
            # The target will be replaced; restore it to a consistent dead-able
            # state pointing at its new fanins so dereferencing works.
            self._fanin0[target] = n0
            self._fanin1[target] = n1
            self._raise_rank(target)
            return simplified
        self._fanin0[target] = n0
        self._fanin1[target] = n1
        self._raise_rank(target)
        self._strash[(n0, n1)] = target
        self._fanouts[lit_node(n0)].append(target)
        self._fanouts[lit_node(n1)].append(target)
        return None

    def _raise_rank(self, node: int) -> None:
        """Restore the rank order at *node*, whose fanins were just patched,
        and above it.

        Follows only real fanout edges (a live ``t`` whose fanin is still
        the node): a stale ``_fanouts`` entry may point into the node's own
        fan-in, and following it could loop.
        """
        rank, fanin0, fanin1 = self._rank, self._fanin0, self._fanin1
        stack = [node]
        while stack:
            n = stack.pop()
            need = 1 + max(rank[fanin0[n] >> 1], rank[fanin1[n] >> 1])
            if rank[n] >= need:
                continue
            rank[n] = need
            for t in self._fanouts[n]:
                if not self._dead[t] and (fanin0[t] >> 1 == n
                                          or fanin1[t] >> 1 == n):
                    stack.append(t)

    def _strash_key(self, f0: int, f1: int) -> Tuple[int, int]:
        return (f0, f1) if f0 <= f1 else (f1, f0)

    def _kill_if_dangling(self, node: int) -> None:
        """Recursively delete AND nodes whose reference count reached zero."""
        stack = [node]
        while stack:
            n = stack.pop()
            if not self.is_and(n) or self._nrefs[n] > 0:
                continue
            self._dead[n] = True
            self._n_dead_ands += 1
            self._touch()
            key = self._strash_key(self._fanin0[n], self._fanin1[n])
            if self._strash.get(key) == n:
                del self._strash[key]
            for f in (self._fanin0[n], self._fanin1[n]):
                fn = lit_node(f)
                self._nrefs[fn] -= 1
                if self._nrefs[fn] == 0 and self.is_and(fn):
                    stack.append(fn)

    def protect(self, literal: int) -> None:
        """Take an external reference on a literal's node.

        Keeps freshly built logic alive across intervening :meth:`replace`
        calls; pair with :meth:`unprotect`.
        """
        self._ref_lit(literal)

    def unprotect(self, literal: int) -> None:
        """Drop a reference taken with :meth:`protect` (may collect the cone)."""
        self._deref_lit(literal)

    # -- MFFC -------------------------------------------------------------------

    def mffc_size(self, node: int) -> int:
        """Size of the Maximum Fanout-Free Cone of *node*.

        The MFFC is the set of AND nodes that would become dangling if *node*
        were removed — the "saving" term of Alg. 1 line 11.  Computed with
        the classic deref/ref trick, leaving reference counts unchanged.
        """
        if not self.is_and(node):
            return 0
        count, touched = self._deref_mffc(node)
        for n in touched:
            self._nrefs[n] += 1
        return count

    def mffc_nodes(self, node: int) -> List[int]:
        """The AND nodes inside the MFFC of *node* (including *node*)."""
        if not self.is_and(node):
            return []
        nodes = [node]
        _count, touched = self._deref_mffc(node, collect=nodes)
        for n in touched:
            self._nrefs[n] += 1
        return nodes

    def _deref_mffc(self, node: int, collect: Optional[List[int]] = None):
        count = 1
        touched: List[int] = []
        stack = [node]
        while stack:
            n = stack.pop()
            for f in (self._fanin0[n], self._fanin1[n]):
                fn = lit_node(f)
                self._nrefs[fn] -= 1
                touched.append(fn)
                if self._nrefs[fn] == 0 and self.is_and(fn):
                    count += 1
                    if collect is not None:
                        collect.append(fn)
                    stack.append(fn)
        return count, touched

    # -- traversal helpers (see traversal.py for the heavier ones) ---------------

    def topological_order(self) -> List[int]:
        """Live AND nodes in topological (fanin-before-fanout) order."""
        order: List[int] = []
        visited = bytearray(len(self._fanin0))
        stack: List[int] = []
        for po in self._pos:
            root = lit_node(po)
            if visited[root] or not self.is_and(root):
                continue
            stack.append(root)
            while stack:
                n = stack[-1]
                if visited[n] == 2:
                    stack.pop()
                    continue
                if visited[n] == 0:
                    visited[n] = 1
                    for f in (self._fanin0[n], self._fanin1[n]):
                        fn = lit_node(f)
                        if self.is_and(fn) and visited[fn] == 0:
                            stack.append(fn)
                else:
                    visited[n] = 2
                    order.append(n)
                    stack.pop()
        return order

    def levels(self) -> Dict[int, int]:
        """Level (logic depth) of every live node reachable from the POs."""
        level = {0: 0}
        for p in self._pis:
            level[p] = 0
        for n in self.topological_order():
            level[n] = 1 + max(level[lit_node(self._fanin0[n])],
                               level[lit_node(self._fanin1[n])])
        return level

    @property
    def depth(self) -> int:
        """Number of levels of the network (the paper's "level count")."""
        level = self.levels()
        return max((level.get(lit_node(po), 0) for po in self._pos), default=0)

    # -- copying / compaction ------------------------------------------------------

    def cleanup(self) -> "Aig":
        """Return a compacted copy containing only logic reachable from POs."""
        new, _mapping = self.cleanup_with_map()
        return new

    def cleanup_with_map(self) -> Tuple["Aig", Dict[int, int]]:
        """Like :meth:`cleanup`, also returning the old-node → new-literal map."""
        new = Aig(self.name)
        mapping: Dict[int, int] = {0: CONST0}
        for i, p in enumerate(self._pis):
            mapping[p] = new.add_pi(self._pi_names[i])
        for n in self.topological_order():
            f0, f1 = self._fanin0[n], self._fanin1[n]
            a = lit_notcond(mapping[lit_node(f0)], lit_is_compl(f0))
            b = lit_notcond(mapping[lit_node(f1)], lit_is_compl(f1))
            mapping[n] = new.add_and(a, b)
        for i, po in enumerate(self._pos):
            new.add_po(lit_notcond(mapping[lit_node(po)], lit_is_compl(po)),
                       self._po_names[i])
        return new, mapping

    def clone(self) -> "Aig":
        """Deep copy preserving structure (via :meth:`cleanup`)."""
        return self.cleanup()

    # -- misc ---------------------------------------------------------------------

    def check(self) -> None:
        """Validate internal invariants; raise :class:`AigError` on corruption."""
        refs = [0] * len(self._fanin0)
        for n in self.ands():
            f0, f1 = self._fanin0[n], self._fanin1[n]
            for f in (f0, f1):
                if self._dead[lit_node(f)]:
                    raise AigError(f"node {n} has dead fanin {lit_node(f)}")
                refs[lit_node(f)] += 1
            if self._strash.get(self._strash_key(f0, f1)) != n:
                raise AigError(f"node {n} missing from strash table")
            if self._rank[n] <= max(self._rank[lit_node(f0)],
                                    self._rank[lit_node(f1)]):
                raise AigError(f"node {n} does not rank above its fanins")
        for po in self._pos:
            if self._dead[lit_node(po)]:
                raise AigError("PO points at dead node")
            refs[lit_node(po)] += 1
        for n in self.nodes():
            if refs[n] != self._nrefs[n]:
                raise AigError(f"refcount mismatch at node {n}: "
                               f"{self._nrefs[n]} stored vs {refs[n]} actual")

    def stats(self) -> Dict[str, int]:
        """Summary statistics: inputs, outputs, size and depth."""
        return {
            "pis": self.num_pis,
            "pos": self.num_pos,
            "ands": self.num_ands,
            "levels": self.depth,
        }

    def __repr__(self) -> str:
        return (f"Aig(name={self.name!r}, pis={self.num_pis}, "
                f"pos={self.num_pos}, ands={self.num_ands})")

    # -- internals -------------------------------------------------------------------

    def _new_node(self, f0: int, f1: int) -> int:
        # A comparison, not max(): every cleanup and decode builds its
        # network here, and max() made Aig.cleanup 14 % slower.
        rank = self._rank
        if f0 < 0:
            rank.append(0)
        else:
            r0, r1 = rank[f0 >> 1], rank[f1 >> 1]
            rank.append(r0 + 1 if r0 > r1 else r1 + 1)
        self._fanin0.append(f0)
        self._fanin1.append(f1)
        self._nrefs.append(0)
        self._dead.append(False)
        self._fanouts.append([])
        self._touch()
        return len(self._fanin0) - 1

    def _ref_lit(self, literal: int) -> None:
        self._nrefs[lit_node(literal)] += 1

    def _deref_lit(self, literal: int) -> None:
        node = lit_node(literal)
        self._nrefs[node] -= 1
        if self._nrefs[node] == 0 and self.is_and(node):
            self._kill_if_dangling(node)

    def _check_lit(self, literal: int) -> None:
        node = lit_node(literal)
        if literal < 0 or node >= len(self._fanin0):
            raise AigError(f"literal {literal} out of range")
        if self._dead[node]:
            raise AigError(f"literal {literal} points at dead node {node}")
