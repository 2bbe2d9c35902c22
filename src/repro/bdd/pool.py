"""Process-local :class:`~repro.bdd.manager.BddManager` recycling pool.

The SBM engines build one BDD manager per partition (and the MSPF engine
rebuilds its window BDDs after every accepted rewrite).  Recycling a
manager object keeps its already-grown list and dict *capacity* —
the node arrays and hash tables a window-sized workload forces the
allocator to resize repeatedly — without keeping any *nodes*:
:meth:`~repro.bdd.manager.BddManager.reset_for_reuse` restores the
exact state fresh construction would produce.

Keeping the unique table warm across clients is deliberately off the
table: :attr:`~repro.bdd.manager.BddManager.node_limit` counts
cumulative allocations, so retained nodes would absorb part of a new
client's allocation demand, shift the engines' bailout points, and
break the engines' bit-identity with fresh managers (a bailing partition
that suddenly completes changes the final network).

The pool is per-process (worker processes each grow their own) and
capped both in depth and in retained-capacity footprint so it can never
hoard unbounded memory.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bdd.manager import BddManager

#: Maximum managers kept waiting for reuse.
MAX_POOLED = 4
#: Managers whose unique table grew beyond this many nodes are dropped
#: instead of pooled — recycling must bound memory, not leak it.
MAX_POOLED_NODES = 1_000_000

_POOL: List[BddManager] = []


def acquire(num_vars: int, node_limit: Optional[int] = None) -> BddManager:
    """A manager with *num_vars* variables and fresh-equivalent headroom."""
    while _POOL:
        manager = _POOL.pop()
        if manager.num_nodes <= MAX_POOLED_NODES:
            manager.reset_for_reuse(num_vars, node_limit=node_limit)
            return manager
    return BddManager(num_vars, node_limit=node_limit)


def release(manager: BddManager) -> None:
    """Offer *manager* back for recycling (dropped when over budget)."""
    if len(_POOL) < MAX_POOLED and manager.num_nodes <= MAX_POOLED_NODES:
        _POOL.append(manager)


def clear() -> None:
    """Drop every pooled manager (test isolation / memory reclamation)."""
    _POOL.clear()
