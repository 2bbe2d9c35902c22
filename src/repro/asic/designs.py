"""Synthetic "industrial ASIC" designs for the Table III experiment.

The paper evaluates on "33 state-of-the-art ASICs, coming from major
electronics industries" under NDA.  As the substitution (DESIGN.md §3), we
generate 33 deterministic, seeded designs mixing the structures industrial
netlists are made of — datapath islands (adders, multipliers, comparators,
shifters), control blocks (arbiters, priority logic, FSM-like functions),
and glue/random logic — with cross-connections so optimization opportunities
span block boundaries.  Each design carries a clock-period target set
slightly below its easy critical path so that negative slack exists for the
flows to fight over (matching Table III's WNS/TNS columns).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.aig.aig import Aig
from repro.aig.compose import (
    less_than,
    multiplier,
    mux_word,
    popcount,
    ripple_adder,
    subtractor,
)
from repro.bench.control import _priority_chain, control_function


@dataclass
class IndustrialDesign:
    """One synthetic ASIC benchmark."""

    name: str
    aig: Aig
    clock_period: float


def generate_design(index: int) -> Aig:
    """Deterministically generate design *index* (0-based)."""
    rng = random.Random(0xA51C + index)
    aig = Aig(f"asic{index:02d}")
    width = rng.choice([6, 8, 10])
    pool: List[int] = list(aig.add_pis(4 * width, "in"))

    def take(n: int) -> List[int]:
        return [pool[rng.randrange(len(pool))] for _ in range(n)]

    num_blocks = rng.randint(3, 5)
    outputs: List[int] = []
    for b in range(num_blocks):
        kind = rng.choice(["adder", "mult", "cmp", "arb", "ctl", "mux", "pop"])
        if kind == "adder":
            s, c = ripple_adder(aig, take(width), take(width))
            pool += s
            outputs += s[-2:] + [c]
        elif kind == "mult":
            w = max(3, width // 2)
            p = multiplier(aig, take(w), take(w))
            pool += p
            outputs += p[-3:]
        elif kind == "cmp":
            a, bb = take(width), take(width)
            lt = less_than(aig, a, bb)
            diff, borrow = subtractor(aig, a, bb)
            pool += diff + [lt]
            outputs += [lt, borrow]
        elif kind == "arb":
            req = take(width)
            grants = _priority_chain(aig, req)
            pool += grants
            outputs += grants[: max(2, width // 2)]
        elif kind == "ctl":
            n_in = rng.randint(6, 12)
            n_out = rng.randint(4, 10)
            block = control_function(f"ctl{b}", n_in, n_out,
                                     seed=rng.randrange(1 << 30))
            # Inline the control block with pool-driven inputs.
            mapping = {}
            ins = take(n_in)
            for pi_node, src in zip(block.pis(), ins):
                mapping[pi_node] = src
            from repro.aig.aig import lit_is_compl, lit_node, lit_notcond
            for n in block.topological_order():
                f0, f1 = block.fanins(n)
                x = lit_notcond(mapping[lit_node(f0)], lit_is_compl(f0))
                y = lit_notcond(mapping[lit_node(f1)], lit_is_compl(f1))
                mapping[n] = aig.add_and(x, y)
            for po in block.pos():
                from repro.aig.aig import lit_notcond as lnc
                literal = lnc(mapping[lit_node(po)], lit_is_compl(po))
                pool.append(literal)
                outputs.append(literal)
        elif kind == "mux":
            sel = pool[rng.randrange(len(pool))]
            word = mux_word(aig, sel, take(width), take(width))
            pool += word
            outputs += word[:2]
        else:  # pop
            count = popcount(aig, take(width + 3))
            pool += count
            outputs += count[-2:]
    # Final output selection: a deterministic subset plus parity guards.
    rng.shuffle(outputs)
    for i, literal in enumerate(outputs[: max(8, len(outputs) // 2)]):
        aig.add_po(literal, f"out{i}")
    aig.add_po(aig.add_xor_multi(outputs[:7]), "parity")
    return aig.cleanup()


def industrial_designs(count: int = 33,
                       clock_margin: float = 0.97) -> List[IndustrialDesign]:
    """The 33-design suite with per-design clock targets.

    The clock period is ``clock_margin ×`` the critical path of a quickly
    mapped baseline, so baseline runs start slightly violated — as tight
    industrial timing closures do.
    """
    from repro.asic.sta import analyze_timing
    from repro.asic.techmap import tech_map
    designs: List[IndustrialDesign] = []
    for index in range(count):
        aig = generate_design(index)
        netlist = tech_map(aig)
        timing = analyze_timing(netlist, clock_period=1e9)
        period = timing.critical_path_delay * clock_margin
        designs.append(IndustrialDesign(aig.name, aig, period))
    return designs
