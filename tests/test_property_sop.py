"""Property-based tests (hypothesis) for the SOP algebra."""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sop.cube import Cube
from repro.sop.division import divide, divide_by_cube
from repro.sop.factor import factor, factored_to_aig
from repro.sop.kernels import _merge_cubes, is_cube_free, kernels, make_cube_free
from repro.sop.sop import Sop


def cube_strategy(nvars):
    return st.tuples(
        st.integers(min_value=0, max_value=(1 << nvars) - 1),
        st.integers(min_value=0, max_value=(1 << nvars) - 1),
    )


def sop_strategy(max_vars=5, max_cubes=6):
    return st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda n: st.tuples(
            st.lists(cube_strategy(n), max_size=max_cubes),
            st.just(n)))


def literal_cube_strategy(nvars, max_literals):
    """A cube of 1..max_literals literals over nvars variables."""
    return st.dictionaries(
        st.integers(min_value=0, max_value=nvars - 1), st.booleans(),
        min_size=1, max_size=max_literals).map(
        lambda phases: (sum(1 << v for v, p in phases.items() if p),
                        sum(1 << v for v, p in phases.items() if not p)))


def masked_cube_strategy(nvars):
    """A non-empty cube over nvars variables: a care mask split by phase."""
    return st.tuples(st.integers(min_value=1, max_value=(1 << nvars) - 1),
                     st.integers(min_value=0, max_value=(1 << nvars) - 1)).map(
        lambda cp: (cp[0] & cp[1], cp[0] & ~cp[1]))


@st.composite
def product_of_sums_cover(draw):
    """Expanded product of 2-4 random sums plus a few stray cubes: covers
    rich in kernels, the shape node elimination builds."""
    n = draw(st.integers(min_value=4, max_value=16))
    cover = Sop([(0, 0)])
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        size = draw(st.integers(min_value=2, max_value=3))
        term = draw(st.lists(literal_cube_strategy(n, 2), min_size=size,
                             max_size=size).map(Sop).filter(
            lambda sop: sop.num_cubes() >= 2))
        cover = cover & term
    for cube in draw(st.lists(masked_cube_strategy(n), max_size=6)):
        cover.add_cube(cube)
    return cover


@st.composite
def random_cover(draw, min_vars=2, max_vars=12, min_cubes=2, max_cubes=60):
    """Plain random cover: a uniformly drawn number of random cubes."""
    n = draw(st.integers(min_value=min_vars, max_value=max_vars))
    size = draw(st.integers(min_value=min_cubes, max_value=max_cubes))
    return Sop(draw(st.lists(masked_cube_strategy(n), min_size=size,
                             max_size=size)))


kernel_covers = st.one_of(product_of_sums_cover(), random_cover())


# The pre-prune recursion: kernels() without the R_KERNELS check, body verbatim.
def unpruned_kernels(sop: Sop, max_kernels: int = 200) -> List[Tuple[Sop, Cube]]:
    out: List[Tuple[Sop, Cube]] = []
    seen: set = set()

    def record(kernel: Sop, cokernel: Cube) -> None:
        key = tuple(sorted(kernel.cubes))
        if key not in seen:
            seen.add(key)
            out.append((kernel, cokernel))

    def rec(cover: Sop, cokernel: Cube, min_var: int) -> None:
        if len(out) >= max_kernels:
            return
        occ = cover.literal_occurrences()
        record(cover, cokernel)
        for (var, positive), count in sorted(occ.items()):
            if count < 2 or var < min_var:
                continue
            literal_cube: Cube = ((1 << var, 0) if positive else (0, 1 << var))
            quotient, _r = divide_by_cube(cover, literal_cube)
            if quotient.num_cubes() < 2:
                continue
            free, common = make_cube_free(quotient)
            merged = _merge_cubes(cokernel, literal_cube, common)
            rec(free, merged, var)

    free, common = make_cube_free(sop)
    if free.num_cubes() >= 2:
        rec(free, common, 0)
    return out


@given(sop_strategy())
def test_normal_form_no_containment(spec):
    cubes, n = spec
    sop = Sop(cubes)
    from repro.sop.cube import cube_contains, cube_is_contradiction
    for cube in sop.cubes:
        assert not cube_is_contradiction(cube)
    for i, a in enumerate(sop.cubes):
        for j, b in enumerate(sop.cubes):
            if i != j:
                assert not cube_contains(a, b)


@given(sop_strategy())
def test_union_is_function_or(spec):
    cubes, n = spec
    half = len(cubes) // 2
    f = Sop(cubes[:half])
    g = Sop(cubes[half:])
    assert (f | g).to_truth_bits(n) == (f.to_truth_bits(n) | g.to_truth_bits(n))


@given(sop_strategy())
def test_complement_is_exact(spec):
    cubes, n = spec
    sop = Sop(cubes)
    comp = sop.complement()
    assert comp is not None
    full = (1 << (1 << n)) - 1
    assert comp.to_truth_bits(n) == (sop.to_truth_bits(n) ^ full)


@given(sop_strategy())
def test_division_reconstruction(spec):
    cubes, n = spec
    if len(cubes) < 2:
        return
    f = Sop(cubes)
    d = Sop(cubes[:1])
    q, r = divide(f, d)
    recon = (q & d) | r
    assert recon.to_truth_bits(n) == f.to_truth_bits(n)


@given(sop_strategy())
def test_make_cube_free_reconstruction(spec):
    cubes, n = spec
    sop = Sop(cubes)
    free, common = make_cube_free(sop)
    assert free.and_cube(common).to_truth_bits(n) == sop.to_truth_bits(n)
    if sop.cubes:
        assert is_cube_free(free)


@settings(max_examples=150, deadline=None)
@given(kernel_covers, st.sampled_from([2, 5, 10, 20, 50, 200]))
def test_kernels_divide_evenly(sop, cap):
    """Every kernel is exactly the cover's quotient by its co-kernel, and
    that quotient is cube-free with at least two cubes."""
    for kernel, cokernel in kernels(sop, max_kernels=cap):
        quotient, _r = divide_by_cube(sop, cokernel)
        assert sorted(quotient.cubes) == sorted(kernel.cubes)
        assert is_cube_free(kernel)
        assert kernel.num_cubes() >= 2


@settings(max_examples=150, deadline=None)
@given(random_cover(min_vars=1, max_vars=7, min_cubes=0, max_cubes=14))
def test_kernels_are_every_cube_free_quotient(sop):
    """Uncapped, the kernels are exactly the cube-free quotients ``F / c``
    with two or more cubes, over every cube ``c`` of the support."""
    support = sop.support()
    expected = set()
    for code in range(3 ** len(support)):
        pos = neg = 0
        for var in support:
            code, phase = divmod(code, 3)
            if phase == 1:
                pos |= 1 << var
            elif phase == 2:
                neg |= 1 << var
        quotient, _r = divide_by_cube(sop, (pos, neg))
        if quotient.num_cubes() >= 2 and is_cube_free(quotient):
            expected.add(tuple(sorted(quotient.cubes)))
    found = kernels(sop, max_kernels=3 ** len(support) + 1)
    assert {tuple(sorted(k.cubes)) for k, _ck in found} == expected
    assert len(found) == len(expected)


@settings(max_examples=300, deadline=None)
@given(kernel_covers, st.sampled_from([2, 5, 10, 20, 50, 200]))
def test_kernels_match_unpruned_walk(sop, cap):
    """The co-kernel check drops only repeat visits: the same kernels with
    the same co-kernels in the same order, under every cap."""
    assert ([(k.cubes, ck) for k, ck in kernels(sop, cap)]
            == [(k.cubes, ck) for k, ck in unpruned_kernels(sop, cap)])


@given(sop_strategy())
def test_factor_preserves_function(spec):
    from repro.aig.aig import Aig
    from repro.aig.simulate import po_tables
    cubes, n = spec
    sop = Sop(cubes)
    aig = Aig()
    xs = aig.add_pis(n)
    aig.add_po(factored_to_aig(factor(sop), aig, xs))
    assert po_tables(aig)[0] == sop.to_truth_bits(n)
