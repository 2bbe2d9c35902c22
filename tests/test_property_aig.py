"""Property-based tests (hypothesis) for the AIG and its optimizers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig, lit, lit_node
from repro.aig.simulate import po_tables
from repro.opt.balance import balance
from repro.opt.resub import resub
from repro.opt.rewrite import rewrite


def aig_strategy(max_pis=6, max_nodes=60):
    return st.tuples(
        st.integers(min_value=2, max_value=max_pis),
        st.integers(min_value=5, max_value=max_nodes),
        st.randoms(use_true_random=False),
    )


def build_random(num_pis, num_nodes, rng):
    aig = Aig()
    literals = aig.add_pis(num_pis)
    for _ in range(num_nodes):
        a = rng.choice(literals) ^ rng.getrandbits(1)
        b = rng.choice(literals) ^ rng.getrandbits(1)
        literals.append(aig.add_and(a, b))
    for literal in literals[-4:]:
        aig.add_po(literal)
    return aig.cleanup()


@given(aig_strategy())
@settings(max_examples=25, deadline=None)
def test_strash_never_duplicates(spec):
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    seen = set()
    for n in aig.ands():
        key = aig.fanins(n)
        assert key not in seen
        seen.add(key)


@given(aig_strategy())
@settings(max_examples=25, deadline=None)
def test_invariants_after_construction(spec):
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    aig.check()


@given(aig_strategy())
@settings(max_examples=15, deadline=None)
def test_balance_function_size_depth(spec):
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    balanced = balance(aig)
    assert po_tables(balanced) == po_tables(aig)
    assert balanced.num_ands <= aig.num_ands
    assert balanced.depth <= aig.depth


@given(aig_strategy())
@settings(max_examples=10, deadline=None)
def test_rewrite_invariant(spec):
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    before_tables = po_tables(aig)
    before_size = aig.num_ands
    rewrite(aig)
    aig.check()
    assert po_tables(aig) == before_tables
    assert aig.cleanup().num_ands <= before_size


@given(aig_strategy())
@settings(max_examples=10, deadline=None)
def test_resub_invariant(spec):
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    before_tables = po_tables(aig)
    before_size = aig.num_ands
    resub(aig)
    aig.check()
    assert po_tables(aig) == before_tables
    assert aig.cleanup().num_ands <= before_size


@given(aig_strategy())
@settings(max_examples=15, deadline=None)
def test_aag_round_trip(spec):
    from repro.aig.io_aiger import read_aag, write_aag_string
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    back = read_aag(write_aag_string(aig))
    assert po_tables(back) == po_tables(aig)


@given(aig_strategy())
@settings(max_examples=10, deadline=None)
def test_random_equivalent_replace_preserves_function(spec):
    """Replacing a node by a re-built copy of its own cone is a no-op
    functionally, whatever the strash table does structurally."""
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    tables = po_tables(aig)
    nodes = list(aig.ands())
    for _ in range(3):
        if not nodes:
            break
        target = rng.choice(nodes)
        if aig.is_dead(target):
            continue
        f0, f1 = aig.fanins(target)
        rebuilt = aig.add_and(f0, f1)  # strashes straight back
        if lit_node(rebuilt) != target:
            aig.replace(target, rebuilt)
            aig.check()
    assert po_tables(aig) == tables


@given(aig_strategy(max_pis=6, max_nodes=50))
@settings(max_examples=25, deadline=None)
def test_rank_guard_matches_transitive_fanin(spec):
    """Random replacements keep every live AND ranked above its fanins,
    and the rank-bounded guard answers as the full fan-in walk does.
    Replacing a node by its fanout's other fanin turns that fanout into
    ``x & x`` or ``x & !x``, the simplified branch of the fanin patch;
    other replacements may rank above the node they replace."""
    from repro.aig.traversal import (node_level_map, transitive_fanin,
                                     transitive_fanout)
    num_pis, num_nodes, rng = spec
    aig = build_random(num_pis, num_nodes, rng)
    for _ in range(10):
        live = list(aig.ands())
        if not live:
            break
        target = rng.choice(live)
        tfo = transitive_fanout(aig, [target])
        fanouts = aig.fanout_nodes(target)
        if fanouts and rng.random() < 0.5:
            f0, f1 = aig.fanins(rng.choice(fanouts))
            repl = (f1 if lit_node(f0) == target else f0) ^ rng.getrandbits(1)
        else:
            # The deeper half of the candidates, to rank above the target.
            levels = node_level_map(aig)
            outside = sorted((n for n in aig.nodes() if n not in tfo),
                             key=lambda n: levels[n])
            repl = lit(rng.choice(outside[len(outside) // 2:]),
                       rng.random() < 0.5)
        if lit_node(repl) in tfo:
            continue
        aig.replace(target, repl)
        aig.check()
        nodes = list(aig.nodes())
        for a in nodes:
            cone = transitive_fanin(aig, [a])
            for b in (rng.choice(nodes), rng.choice(sorted(cone))):
                assert aig.depends_on(a, b) == (b in cone)
