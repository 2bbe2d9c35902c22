"""Kernel and co-kernel computation, and multi-node kernel extraction.

"Kernel extraction [10] is one of the most effective techniques in logic
optimization ... it allows us to share large portions of logic circuits"
(Section IV-B).  A *kernel* of a cover F is a cube-free quotient of F by a
cube (its *co-kernel*); common kernels across nodes expose shared divisors.

The classic recursive enumeration (Brayton/McMullen 1982, ``R_KERNELS`` in
De Micheli's *Synthesis and Optimization of Digital Circuits*) is
implemented, co-kernel check included: a literal's branch is skipped when the
common cube of its quotient holds a variable below the literal's, because the
depth-first walk has already reached everything in that branch earlier.
Without the check a priority chain ``x0 + !x0·x1 + !x0·!x1·x2 + …`` of n
terms costs 2^(n-2) recursive calls instead of n-1.  Alongside it sits a
greedy extraction loop that repeatedly factors out the kernel with the best
literal saving — the primitive that the heterogeneous-threshold engine of
:mod:`repro.sbm.hetero_kernel` drives per partition.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.sop.cube import Cube, TAUTOLOGY_CUBE, cube_common
from repro.sop.division import divide, divide_by_cube
from repro.sop.sop import Sop


def make_cube_free(sop: Sop) -> Tuple[Sop, Cube]:
    """Divide out the largest common cube; returns (cube-free cover, cube)."""
    if sop.num_cubes() == 0:
        return sop.copy(), TAUTOLOGY_CUBE
    common = cube_common(sop.cubes)
    if common == TAUTOLOGY_CUBE:
        return sop.copy(), TAUTOLOGY_CUBE
    quotient, _r = divide_by_cube(sop, common)
    return quotient, common


def is_cube_free(sop: Sop) -> bool:
    """True when no single literal divides every cube."""
    return cube_common(sop.cubes) == TAUTOLOGY_CUBE if sop.cubes else True


def kernels(sop: Sop, max_kernels: int = 200) -> List[Tuple[Sop, Cube]]:
    """All (kernel, co-kernel) pairs of a cover, capped at *max_kernels*.

    The cover itself is included (with tautology co-kernel) when cube-free —
    the *level-0* kernels used by factoring are the leaves of this recursion.

    The walk is depth first, literals in ``(var, positive)`` order, and each
    kernel is kept with the co-kernel of its first visit.  A branch whose
    co-kernel gains a variable below the literal just divided out is skipped
    (the ``R_KERNELS`` check).  That changes neither the list nor its
    order, under any cap: every co-kernel K has one path that adds K's
    lowest missing literal at each step, and that path never fails the
    check.  Any other path to K is lexicographically greater, so the walk
    reaches it only after K's kernel was recorded.  Every skipped branch
    lies on such a later path.
    """
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
            if (common[0] | common[1]) & ((1 << var) - 1):
                continue
            merged = _merge_cubes(cokernel, literal_cube, common)
            rec(free, merged, var)

    free, common = make_cube_free(sop)
    if free.num_cubes() >= 2:
        rec(free, common, 0)
    return out


def _merge_cubes(*cubes: Cube) -> Cube:
    pos = neg = 0
    for p, n in cubes:
        pos |= p
        neg |= n
    return (pos, neg)


def _support_masks(sop: Sop) -> Tuple[int, int]:
    """Union of positive / negative literal masks over the cover."""
    pos = neg = 0
    for p, n in sop.cubes:
        pos |= p
        neg |= n
    return pos, neg


def _node_saving(node: Sop, kernel: Sop) -> int:
    """Literal saving of rewriting *node* as ``Q·k + R`` (0 when it loses).

    Pure function of the two covers; positive exactly when the node counts
    as a profitable use of *kernel*.
    """
    quotient, remainder = divide(node, kernel)
    if quotient.is_const0():
        return 0
    new_cost = (quotient.num_literals() + quotient.num_cubes()
                + remainder.num_literals())
    old_cost = node.num_literals()
    return old_cost - new_cost if new_cost < old_cost else 0


def kernel_value(nodes: Iterable[Sop], kernel: Sop) -> int:
    """Literal saving from extracting *kernel* as a new shared node.

    For each node whose quotient by the kernel is non-trivial, the node is
    rewritten as ``Q·k + R``; the saving is the difference in total literals
    (kernel literals are paid once).  A node whose cover lacks one of the
    kernel's literals entirely has an empty quotient (that kernel cube
    divides none of its cubes), so a union-mask screen skips most divisions
    outright.
    """
    kernel_literals = kernel.num_literals()
    kp, kn = _support_masks(kernel)
    total_saving = 0
    uses = 0
    for node in nodes:
        mp, mn = _support_masks(node)
        if (kp & ~mp) or (kn & ~mn):
            continue
        saving = _node_saving(node, kernel)
        if saving > 0:
            total_saving += saving
            uses += 1
    if uses == 0:
        return -kernel_literals
    return total_saving - kernel_literals


def best_kernel(nodes: List[Sop], max_kernels_per_node: int = 50,
                _cache: Optional[dict] = None) -> Optional[Tuple[Sop, int]]:
    """The kernel (from any node) with the best extraction value, or None.

    Single-cube "kernels" are excluded (they carry no sharing).  Returns
    ``(kernel, value)`` with value > 0, or None when nothing profitable
    exists.

    Kernel lists and savings are memoized in *_cache*, or in a dict local
    to the call when none is given.  Passing one dict to repeated calls on
    overlapping node sets shares the memo across them — the greedy
    extraction loop re-evaluates a nearly unchanged network every round.
    It holds two content-keyed tables: kernel lists per cover (keyed by
    exact cube order, which kernel enumeration depends on) and
    per-(node, kernel) saving contributions (keyed by node cube order plus
    the kernel's canonical sorted-cube form — division results are
    cover-level and iteration-order independent).  Both are pure functions
    of cover content, so cached calls are bit-identical replays.
    """
    if _cache is None:
        _cache = {}
    best: Optional[Sop] = None
    best_value = 0
    seen: set = set()
    kernel_cache = _cache.setdefault("kernels", {})
    saving_cache = _cache.setdefault("saving", {})
    node_keys = [tuple(node.cubes) for node in nodes]
    node_masks = [_support_masks(node) for node in nodes]
    for node, node_key in zip(nodes, node_keys):
        kernel_list = kernel_cache.get((node_key, max_kernels_per_node))
        if kernel_list is None:
            kernel_list = kernels(node, max_kernels_per_node)
            kernel_cache[(node_key, max_kernels_per_node)] = kernel_list
        for kernel, _cokernel in kernel_list:
            if kernel.num_cubes() < 2:
                continue
            key = tuple(sorted(kernel.cubes))
            if key in seen:
                continue
            seen.add(key)
            kernel_literals = kernel.num_literals()
            kp, kn = _support_masks(kernel)
            total_saving = 0
            uses = 0
            for other, other_key, (mp, mn) in zip(nodes, node_keys,
                                                  node_masks):
                if (kp & ~mp) or (kn & ~mn):
                    continue
                pair = (other_key, key)
                saving = saving_cache.get(pair)
                if saving is None:
                    saving = _node_saving(other, kernel)
                    saving_cache[pair] = saving
                if saving > 0:
                    total_saving += saving
                    uses += 1
            value = (total_saving - kernel_literals if uses
                     else -kernel_literals)
            if value > best_value:
                best_value = value
                best = kernel
    if best is None:
        return None
    return best, best_value
