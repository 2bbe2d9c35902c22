"""Shared machinery for in-place AIG optimization moves.

Every local move (rewrite, refactor, resub, Boolean difference, MSPF resub)
follows the same contract the paper states for the gradient engine: "All
moves are designed to have gain ≥ 0 at all times, otherwise the corresponding
change is reverted."  :func:`try_replace` implements that contract: it
measures the *real* gain of splicing a replacement literal (new nodes built
minus MFFC reclaimed), commits only when the gain passes the threshold, and
otherwise collects the tentative logic so the network is left untouched.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.aig.aig import Aig, lit_node


def try_replace(aig: Aig, root: int, build: Callable[[], int],
                min_gain: int = 1) -> Optional[int]:
    """Tentatively build a replacement for *root* and commit if profitable.

    Parameters
    ----------
    aig:
        The network being edited.
    root:
        The AND node to replace.
    build:
        Zero-argument callable that constructs the replacement logic in
        *aig* (via strashed ``add_*`` calls) and returns its literal.
    min_gain:
        Minimum accepted node saving.  ``min_gain = 0`` accepts
        size-neutral reshapes — Alg. 2's acceptance rule "(ii) it does not
        increase the number of nodes ... could reshape the network ... and
        help escaping local minima".

    Returns the achieved gain (≥ *min_gain*) on success, None when the move
    was rejected and rolled back.
    """
    if not aig.is_and(root):
        return None
    before = aig.num_ands
    new_lit = build()
    added = aig.num_ands - before
    if lit_node(new_lit) == root:
        _collect_dangling(aig, new_lit)
        return None
    aig.protect(new_lit)
    # Cycle guard: the strashed new logic must not pass through the root.
    if aig.depends_on(lit_node(new_lit), root):
        aig.unprotect(new_lit)
        return None
    reclaim = aig.mffc_size(root)
    gain = reclaim - added
    if gain < min_gain:
        aig.unprotect(new_lit)
        return None
    aig.replace(root, new_lit)
    aig.unprotect(new_lit)
    # Cascaded strash merges can reclaim more than the MFFC estimate.
    return max(gain, before - aig.num_ands)


def _collect_dangling(aig: Aig, literal: int) -> None:
    """Sweep tentative logic left dangling when a move self-maps."""
    aig.protect(literal)
    aig.unprotect(literal)
