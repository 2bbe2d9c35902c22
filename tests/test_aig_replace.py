"""Tests for the in-place ``replace`` editing primitive.

These include regression tests for two subtle garbage-collection bugs found
during development: a queued cascade-merge target being collected before
processing, and a strash-merge literal being collected by the dereference
cascade inside the fanin patch.
"""

import random

import pytest

from repro.aig.aig import (
    CONST0,
    Aig,
    lit,
    lit_is_compl,
    lit_node,
    lit_not,
    lit_notcond,
)
from repro.aig.simulate import po_tables
from repro.errors import AigError


def test_replace_with_equal_function_preserves_outputs():
    aig = Aig()
    a, b, c = aig.add_pis(3)
    ab = aig.add_and(a, b)
    ac = aig.add_and(a, c)
    f = aig.add_or(ab, ac)
    aig.add_po(f)
    before = po_tables(aig)
    # a&(b|c) equals ab|ac; build and splice it (watch the phase: the OR
    # literal is complemented with respect to its underlying AND node)
    alt = aig.add_and(a, aig.add_or(b, c))
    aig.replace(lit_node(f), lit_notcond(alt, lit_is_compl(f)))
    aig.check()
    assert po_tables(aig) == before


def test_replace_simplification_cascade():
    aig = Aig()
    a, b, c = aig.add_pis(3)
    ab = aig.add_and(a, b)
    ac = aig.add_and(a, c)
    f = aig.add_or(ab, ac)
    aig.add_po(f)
    # replacing ac by ab turns the OR into a copy of ab
    aig.replace(lit_node(ac), ab)
    aig.check()
    assert aig.num_ands == 1
    assert aig.pos()[0] == ab


def test_replace_with_constant_propagates_to_po():
    aig = Aig()
    a, b = aig.add_pis(2)
    n1 = aig.add_and(a, b)
    n2 = aig.add_and(n1, lit_not(a))
    aig.add_po(n2)
    aig.replace(lit_node(n1), CONST0)
    aig.check()
    assert aig.pos()[0] == CONST0
    assert aig.num_ands == 0


def test_replace_merges_structural_duplicates():
    aig = Aig()
    a, b, c = aig.add_pis(3)
    x = aig.add_and(a, b)
    y = aig.add_and(a, c)
    top1 = aig.add_and(x, c)
    top2 = aig.add_and(y, c)
    aig.add_po(top1)
    aig.add_po(top2)
    # replacing y by x rewrites top2 into x & c, which strash-merges it
    # with top1 (the cascade path of replace)
    aig.replace(lit_node(y), x)
    aig.check()
    assert aig.pos()[0] == aig.pos()[1]
    assert aig.num_ands == 2  # x and the merged top


def test_replace_rejects_self():
    aig = Aig()
    a, b = aig.add_pis(2)
    f = aig.add_and(a, b)
    aig.add_po(f)
    with pytest.raises(AigError):
        aig.replace(lit_node(f), f)


def test_replace_dead_node_rejected():
    aig = Aig()
    a, b = aig.add_pis(2)
    f = aig.add_and(a, b)
    aig.add_po(f)
    aig.replace(lit_node(f), a)
    with pytest.raises(AigError):
        aig.replace(lit_node(f), b)


def test_replace_updates_complemented_po():
    aig = Aig()
    a, b = aig.add_pis(2)
    f = aig.add_and(a, b)
    aig.add_po(lit_not(f))
    aig.replace(lit_node(f), a)
    assert aig.pos()[0] == lit_not(a)


def test_protect_keeps_dangling_logic_alive():
    aig = Aig()
    a, b, c = aig.add_pis(3)
    f = aig.add_and(a, b)
    aig.add_po(f)
    pending = aig.add_and(aig.add_and(a, c), b)
    aig.protect(pending)
    aig.replace(lit_node(f), aig.add_and(a, c))
    assert not aig.is_dead(lit_node(pending))
    aig.unprotect(pending)
    aig.check()


def test_random_replace_sequences_keep_invariants(random_aig_factory):
    """Regression net for the cascade-collection bugs: random replacements
    of nodes by functionally arbitrary literals must never corrupt
    refcounts, strash, or leave dead fanins (function changes are fine —
    only structural integrity is asserted here)."""
    rng = random.Random(99)
    for seed in range(8):
        aig = random_aig_factory(8, 120, seed=seed)
        for _ in range(25):
            live = [n for n in aig.ands()]
            if len(live) < 3:
                break
            target = rng.choice(live)
            # pick a replacement that cannot create a cycle: a node from
            # the target's own transitive fanin
            from repro.aig.traversal import transitive_fanin
            cone = [n for n in transitive_fanin(aig, [target])
                    if n != target]
            repl_node = rng.choice(cone)
            aig.replace(target, lit(repl_node, rng.random() < 0.5))
            aig.check()


def test_replace_preserves_function_when_equivalent(random_aig_factory):
    """Replacing nodes with SAT-proven equivalents keeps the global
    function (the contract every optimization engine relies on)."""
    from repro.sat.cnf import AigCnf, prove_equivalent
    aig = random_aig_factory(6, 80, seed=7)
    reference = po_tables(aig)
    cnf = AigCnf(aig)
    nodes = list(aig.ands())
    merged = 0
    for i, n in enumerate(nodes):
        if aig.is_dead(n):
            continue
        for m in nodes[i + 1:]:
            if aig.is_dead(m) or aig.is_dead(n):
                continue
            eq, _ = prove_equivalent(cnf, lit(n), lit(m))
            if eq:
                from repro.aig.traversal import transitive_fanin
                if m in transitive_fanin(aig, [n]):
                    continue
                aig.replace(m, lit(n))
                merged += 1
                break
        if merged >= 3:
            break
    aig.check()
    assert po_tables(aig) == reference
