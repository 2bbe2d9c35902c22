"""Optimization *moves* for the gradient engine (Section IV-A).

"We define AIG optimization moves, which are primitive transformations
applicable locally.  We consider the following moves: rewriting,
refactoring, resub, mspf resub and eliminate, simplify & kerneling.  All
moves other than rewriting are available in low and high effort modes,
trading runtime for QoR.  All moves have an associated cost, which depends
on their runtime complexity."

Every move takes the network and one partition window and returns its gain
(node saving, always ≥ 0 — unprofitable changes are reverted inside the
primitive engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.aig.aig import Aig
from repro.opt.refactor import refactor
from repro.opt.resub import resub
from repro.opt.rewrite import rewrite
from repro.parallel.stats import window_counters
from repro.partition.partitioner import Window
from repro.sbm import hetero_kernel
from repro.sbm import mspf as mspf_mod
from repro.sbm.config import KernelConfig, MspfConfig


@dataclass(frozen=True)
class Move:
    """A locally applicable transformation with an abstract runtime cost.

    ``apply`` must be a deterministic function of the network and the
    window: no random numbers, no clock, no state kept between calls that
    changes a result.  The gradient engine relies on this to charge, but
    not re-run, a move that already failed on the same window of the same
    live network.
    """

    name: str
    cost: int
    apply: Callable[[Aig, Window], int]


def _rewrite_move(aig: Aig, window: Window) -> int:
    return rewrite(aig, node_filter=set(window.nodes))


def _refactor_low(aig: Aig, window: Window) -> int:
    return refactor(aig, max_leaves=8, node_filter=set(window.nodes))


def _refactor_high(aig: Aig, window: Window) -> int:
    return refactor(aig, max_leaves=12, node_filter=set(window.nodes))


def _resub_low(aig: Aig, window: Window) -> int:
    return resub(aig, max_leaves=8, max_inserted=1,
                 node_filter=set(window.nodes))


def _resub_high(aig: Aig, window: Window) -> int:
    return resub(aig, max_leaves=10, max_inserted=2, max_divisors=80,
                 node_filter=set(window.nodes))


def _mspf_low(aig: Aig, window: Window) -> int:
    stats = mspf_mod.MspfStats()
    config = MspfConfig(max_connectable_fanins=4)
    mspf_mod.optimize_partition(aig, window, config, stats)
    mspf_mod.publish_metrics(window_counters(stats))
    return stats.gain


def _mspf_high(aig: Aig, window: Window) -> int:
    stats = mspf_mod.MspfStats()
    config = MspfConfig(max_connectable_fanins=12)
    mspf_mod.optimize_partition(aig, window, config, stats)
    mspf_mod.publish_metrics(window_counters(stats))
    return stats.gain


def _kernel_low(aig: Aig, window: Window) -> int:
    stats = hetero_kernel.KernelStats()
    config = KernelConfig(eliminate_thresholds=(-1, 5, 50), kernel_rounds=8)
    hetero_kernel.optimize_partition(aig, window, config, stats)
    hetero_kernel.publish_metrics(stats)
    return stats.node_gain


def _kernel_high(aig: Aig, window: Window) -> int:
    stats = hetero_kernel.KernelStats()
    config = KernelConfig()
    hetero_kernel.optimize_partition(aig, window, config, stats)
    hetero_kernel.publish_metrics(stats)
    return stats.node_gain


#: The move set of the gradient engine, unit-cost moves first.
DEFAULT_MOVES: List[Move] = [
    Move("rewrite", 1, _rewrite_move),
    Move("resub_lo", 2, _resub_low),
    Move("refactor_lo", 2, _refactor_low),
    Move("kernel_lo", 4, _kernel_low),
    Move("mspf_lo", 4, _mspf_low),
    Move("resub_hi", 5, _resub_high),
    Move("refactor_hi", 5, _refactor_high),
    Move("kernel_hi", 8, _kernel_high),
    Move("mspf_hi", 8, _mspf_high),
]
