"""Tests for the area-oriented K-LUT mapper."""

from repro.aig.aig import Aig, lit_node
from repro.mapping.lut import map_luts


def test_cover_is_closed(random_aig_factory):
    aig = random_aig_factory(8, 150, seed=0)
    mapping = map_luts(aig, k=6)
    for leaves in mapping.luts.values():
        for leaf in leaves:
            assert aig.is_pi(leaf) or leaf in mapping.luts or leaf == 0


def test_cover_reaches_all_pos(random_aig_factory):
    aig = random_aig_factory(8, 150, seed=1)
    mapping = map_luts(aig, k=6)
    for po in aig.pos():
        node = lit_node(po)
        if aig.is_and(node):
            assert node in mapping.luts


def test_k_bound(random_aig_factory):
    aig = random_aig_factory(8, 150, seed=2)
    for k in (3, 4, 6):
        mapping = map_luts(aig, k=k)
        for leaves in mapping.luts.values():
            assert len(leaves) <= k


def test_area_not_worse_than_node_count(random_aig_factory):
    """Each LUT covers >= 1 AND, so LUT count <= AND count."""
    aig = random_aig_factory(8, 200, seed=3)
    mapping = map_luts(aig, k=6)
    assert mapping.area <= aig.num_ands


def test_depth_not_worse_than_aig_depth(random_aig_factory):
    aig = random_aig_factory(8, 200, seed=4)
    mapping = map_luts(aig, k=6)
    assert 0 < mapping.depth <= aig.depth


def test_bigger_k_never_hurts_area_much():
    """LUT-6 mapping of an adder should use far fewer LUTs than LUT-2."""
    from repro.aig.compose import ripple_adder
    aig = Aig()
    a = aig.add_pis(8)
    b = aig.add_pis(8)
    total, carry = ripple_adder(aig, a, b)
    for s in total + [carry]:
        aig.add_po(s)
    small = map_luts(aig, k=2)
    large = map_luts(aig, k=6)
    assert large.area < small.area


def test_adder_maps_to_roughly_half_bit_per_lut6():
    """A ripple adder packs ~2 output bits per LUT-6 (known structure)."""
    from repro.aig.compose import ripple_adder
    aig = Aig()
    a = aig.add_pis(16)
    b = aig.add_pis(16)
    total, carry = ripple_adder(aig, a, b)
    for s in total + [carry]:
        aig.add_po(s)
    mapping = map_luts(aig, k=6)
    assert mapping.area <= 40  # 17 outputs, ≈2 bits/LUT plus slack


def test_constant_and_pi_outputs():
    aig = Aig()
    a = aig.add_pi()
    aig.add_po(a)
    aig.add_po(0)
    mapping = map_luts(aig)
    assert mapping.area == 0
    assert mapping.depth == 0
