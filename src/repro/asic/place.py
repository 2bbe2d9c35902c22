"""Synthetic placement and wire-load model.

The paper reports post-place&route metrics from a commercial flow; here a
deterministic placement stand-in provides the physical effects that matter
for the Table III comparison: wire capacitance growing with fanout and with
die span, plus a congestion estimate.  Cells are laid out level-by-level on
a square grid (a "topological placement"), which rewards the logic-depth and
net-count discipline the paper enforces during synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.asic.techmap import Netlist

#: Wire capacitance per unit estimated length (normalized units).
WIRE_CAP_PER_UNIT = 0.35
#: Base fanout capacitance exponent of the wire-load model.
FANOUT_EXPONENT = 0.8


@dataclass
class Placement:
    """Grid positions per gate plus summary statistics."""

    positions: Dict[str, Tuple[float, float]]
    die_side: float
    total_wirelength: float
    congestion: float


def place(netlist: Netlist, utilization: float = 0.7) -> Placement:
    """Deterministic topological placement on a square die.

    Gates are ordered by logic level and snake-packed across rows; the die
    side derives from total area and target utilization.  Wirelength is
    half-perimeter over each net's pins.
    """
    area = max(netlist.area, 1.0)
    die_side = math.sqrt(area / max(0.1, utilization))
    gates = netlist.gates
    if not gates:
        return Placement({}, die_side, 0.0, 0.0)
    columns = max(1, int(math.sqrt(len(gates))))
    positions: Dict[str, Tuple[float, float]] = {}
    for i, gate in enumerate(gates):
        row, col = divmod(i, columns)
        if row % 2:
            col = columns - 1 - col  # snake rows keep neighbours close
        x = (col + 0.5) * die_side / columns
        y = (row + 0.5) * die_side / max(1, (len(gates) + columns - 1) // columns)
        positions[gate.name] = (x, y)
    total_wl = _total_wirelength(netlist, positions)
    routing_supply = 2.0 * die_side * die_side
    congestion = total_wl / max(routing_supply, 1e-9)
    return Placement(positions=positions, die_side=die_side,
                     total_wirelength=total_wl, congestion=congestion)


def _total_wirelength(netlist: Netlist,
                      positions: Dict[str, Tuple[float, float]]) -> float:
    drivers = netlist.driver_map()
    readers = netlist.fanout_map()
    total = 0.0
    for net, gates in readers.items():
        pins: List[Tuple[float, float]] = []
        driver = drivers.get(net)
        if driver is not None and driver.name in positions:
            pins.append(positions[driver.name])
        pins.extend(positions[g.name] for g in gates if g.name in positions)
        if len(pins) >= 2:
            xs = [p[0] for p in pins]
            ys = [p[1] for p in pins]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def wire_capacitance(net: str, fanout: int,
                     placement: Optional[Placement] = None) -> float:
    """Fanout-based wire capacitance, scaled by die span when placed."""
    span = placement.die_side / 10.0 if placement is not None else 1.0
    return WIRE_CAP_PER_UNIT * span * (max(1, fanout) ** FANOUT_EXPONENT)
