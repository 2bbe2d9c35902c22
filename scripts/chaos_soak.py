#!/usr/bin/env python3
"""Chaos soak: run the SBM flow under deterministic fault injection.

For each seed the soak runs the full flow on an EPFL benchmark with a
:class:`repro.guard.chaos.FaultPlan` injecting worker crashes, window
timeouts, corrupt (non-equivalent) results, and forced BDD bailouts, plus
stage-level result corruption — and then asserts the robustness contract:

* the flow **completes** (faults degrade, they never abort),
* the output is **SAT-equivalent** to the input,
* every injected fault is **visible in the guard report**,
* every stage-level corruption was **rolled back** by the equivalence
  guard,
* an **interrupted** run, rerun against the same stage-memo cache
  directory, replays its committed stages and produces the *same
  network* as an uninterrupted run.

Exit status 0 means every seed upheld the contract.  This is the script
behind the CI chaos job, once above the 12-input exhaustive CEC limit and
once below it:

    python scripts/chaos_soak.py --bench i2c --seeds 7 1234
    python scripts/chaos_soak.py --bench cavlc --seeds 7 1234
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from repro.bench.registry import get_benchmark  # noqa: E402
from repro.campaign.cache import cache_context  # noqa: E402
from repro.guard.chaos import ChaosInterrupt, FaultPlan  # noqa: E402
from repro.parallel.window_io import CompactAig  # noqa: E402
from repro.sat.equivalence import check_equivalence  # noqa: E402
from repro.sbm.config import FlowConfig  # noqa: E402
from repro.sbm.flow import sbm_flow  # noqa: E402


def signature(aig):
    compact = CompactAig.from_aig(aig)
    return (compact.num_pis, tuple(compact.gates), tuple(compact.outputs))


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


def soak_one(aig, seed: int, jobs: int, rate: float,
             stage_corrupt_rate: float) -> None:
    """One chaos run; asserts completion, equivalence, fault visibility."""
    plan = FaultPlan(seed=seed, rate=rate,
                     stage_corrupt_rate=stage_corrupt_rate)
    config = FlowConfig(iterations=1, jobs=jobs, verify_each_step=True,
                        chaos=plan)
    out, stats = sbm_flow(aig, config)
    guard = stats.guard
    ok, _ = check_equivalence(aig, out)
    if not ok:
        fail(f"seed {seed}: output not equivalent under chaos")
    if len(guard.faults) != len(plan.injected):
        fail(f"seed {seed}: {len(plan.injected)} faults injected but "
             f"{len(guard.faults)} reported")
    stage_corruptions = [site for site, kind in guard.faults
                         if site.startswith("stage:")
                         and kind == "corrupt-result"]
    if guard.rollbacks < len(stage_corruptions):
        fail(f"seed {seed}: {len(stage_corruptions)} stage corruptions but "
             f"only {guard.rollbacks} rollbacks")
    print(f"  seed {seed}: {aig.num_ands} -> {out.num_ands} ands, "
          f"faults={len(guard.faults)} rollbacks={guard.rollbacks} "
          f"equivalent=True")


def soak_resume(aig, seed: int, interrupt_after: int) -> None:
    """Interrupt after a stage, rerun over the stage memo, compare against
    an uninterrupted run."""
    base, _ = sbm_flow(aig, FlowConfig(iterations=1))
    memo_dir = tempfile.mkdtemp(prefix="chaos-memo-")
    try:
        plan = FaultPlan(seed=seed, rate=0.0,
                         interrupt_after=interrupt_after)
        try:
            with cache_context(memo_dir):
                sbm_flow(aig, FlowConfig(iterations=1, chaos=plan))
        except ChaosInterrupt as exc:
            print(f"  interrupted after stage #{exc.stage_index} "
                  f"(stage results committed)")
        else:
            fail(f"seed {seed}: interrupt_after={interrupt_after} "
                 f"never fired")
        with cache_context(memo_dir):
            out, stats = sbm_flow(aig, FlowConfig(iterations=1))
        if signature(out) != signature(base):
            fail(f"seed {seed}: rerun network differs from "
                 f"uninterrupted run")
        if stats.guard.replayed != interrupt_after + 1:
            fail(f"seed {seed}: rerun replayed {stats.guard.replayed} "
                 f"stages, expected {interrupt_after + 1}")
        ok, _ = check_equivalence(aig, out)
        if not ok:
            fail(f"seed {seed}: rerun output not equivalent")
        print(f"  rerun replayed {stats.guard.replayed} stages: "
              f"identical to uninterrupted run")
    finally:
        shutil.rmtree(memo_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="i2c",
                        help="EPFL benchmark name (default: i2c)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 1234],
                        help="chaos seeds to soak (default: 7 1234)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default: 2)")
    parser.add_argument("--rate", type=float, default=0.2,
                        help="window fault rate (default: 0.2)")
    parser.add_argument("--stage-corrupt-rate", type=float, default=0.15,
                        help="stage corruption rate (default: 0.15)")
    parser.add_argument("--interrupt-after", type=int, default=3,
                        help="stage index for the rerun check (default: 3)")
    args = parser.parse_args(argv)

    aig = get_benchmark(args.bench, scaled=True)
    print(f"chaos soak on {args.bench}: {aig.stats()}")
    for seed in args.seeds:
        soak_one(aig, seed, args.jobs, args.rate, args.stage_corrupt_rate)
    print(f"rerun-after-interrupt check (seed {args.seeds[0]}):")
    soak_resume(aig, args.seeds[0], args.interrupt_after)
    print("chaos soak PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
