#!/usr/bin/env python3
"""Benchmark harness for the ``repro.orchestrate`` pass-ordering search.

Runs the K-candidate ordering search twice against the same cache
directory, plus the classic fixed waterfall for a QoR reference:

1. **waterfall** — ``sbm_flow`` with ``orchestrate=None`` (the baseline
   the search must beat or match on node count);
2. **cold** — the search with an empty cache: every distinct
   (network, stage, config) evaluation is computed and committed to the
   per-stage memo slot;
3. **warm** — the same search again: every stage evaluation must replay
   from the memo (zero recomputes) and the chosen ordering and final
   network must be bit-identical to the cold pass.

Writes ``BENCH_orchestrate.json`` with wall times, per-benchmark memo
counters, chosen orderings, and structural checksums.  The gate
(``--check``) is machine-independent — it asserts *behavior*, not
absolute seconds:

* warm runs at least ``--min-speedup`` (default 5×) faster than cold,
* the warm pass recomputes **zero** stages (``misses == 0``),
* warm checksums and chosen orderings equal the cold ones on every
  benchmark,
* the searched result is never worse than the fixed waterfall on nodes.

Usage:
    python scripts/bench_orchestrate.py --quick          # CI smoke
    python scripts/bench_orchestrate.py                  # full EPFL subset
    python scripts/bench_orchestrate.py --quick --check  # gate the contract
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.aig import checksum                      # noqa: E402
from repro.bench.registry import get_benchmark      # noqa: E402
from repro.campaign import cache_context            # noqa: E402
from repro.sbm.config import FlowConfig, OrchestrateConfig  # noqa: E402
from repro.sbm.flow import sbm_flow                 # noqa: E402

REPORT_PATH = os.path.join(ROOT, "BENCH_orchestrate.json")

QUICK_BENCHMARKS = ["router", "cavlc"]
FULL_BENCHMARKS = ["router", "cavlc", "i2c", "priority", "bar"]


def run_search(benchmarks, config: FlowConfig, cache_dir: str,
               label: str) -> dict:
    """One searched pass over every benchmark; returns its record."""
    per_bench = {}
    start = time.perf_counter()
    with cache_context(cache_dir):
        for name in benchmarks:
            aig = get_benchmark(name)
            optimized, stats = sbm_flow(aig, config)
            doc = stats.orchestrate
            memo = doc["stage_memo"] or {}
            per_bench[name] = {
                "nodes": optimized.num_ands,
                "checksum": checksum(optimized),
                "chosen": doc["chosen"],
                "recomputes": memo.get("misses"),
                "disk_hits": memo.get("disk_hits"),
                "memory_hits": memo.get("memory_hits"),
            }
    wall = time.perf_counter() - start
    recomputes = sum(row["recomputes"] or 0 for row in per_bench.values())
    print(f"{label:10s} wall={wall:7.2f}s  stage recomputes={recomputes}")
    return {"label": label, "wall_s": wall, "recomputes": recomputes,
            "benchmarks": per_bench}


def run_waterfall(benchmarks) -> dict:
    """The classic fixed waterfall: QoR reference, never cached here."""
    per_bench = {}
    start = time.perf_counter()
    for name in benchmarks:
        aig = get_benchmark(name)
        optimized, _stats = sbm_flow(aig, FlowConfig(iterations=1))
        per_bench[name] = {"nodes": optimized.num_ands,
                           "checksum": checksum(optimized)}
    wall = time.perf_counter() - start
    print(f"{'waterfall':10s} wall={wall:7.2f}s")
    return {"label": "waterfall", "wall_s": wall, "benchmarks": per_bench}


def run_bench(benchmarks, k: int, rounds: int, cache_dir: str) -> dict:
    config = FlowConfig(iterations=1,
                        orchestrate=OrchestrateConfig(k=k, rounds=rounds))
    waterfall = run_waterfall(benchmarks)
    cold = run_search(benchmarks, config, cache_dir, "cold")
    warm = run_search(benchmarks, config, cache_dir, "warm")
    speedup = cold["wall_s"] / max(warm["wall_s"], 1e-9)
    print(f"warm speedup: {speedup:.1f}x")
    return {
        "schema": "repro.orchestrate/bench-v1",
        "benchmarks": list(benchmarks),
        "k": k,
        "rounds": rounds,
        "waterfall": waterfall,
        "cold": cold,
        "warm": warm,
        "warm_speedup": speedup,
    }


def check(report: dict, min_speedup: float) -> int:
    """Gate the search + memo contract; returns a process exit status."""
    failures = []
    cold, warm = report["cold"], report["warm"]
    waterfall = report["waterfall"]["benchmarks"]
    if warm["recomputes"] != 0:
        failures.append(f"warm pass recomputed {warm['recomputes']} stages "
                        f"(expected zero)")
    for name, cold_row in cold["benchmarks"].items():
        warm_row = warm["benchmarks"][name]
        if warm_row["checksum"] != cold_row["checksum"]:
            failures.append(f"{name}: warm network differs from cold")
        if warm_row["chosen"] != cold_row["chosen"]:
            failures.append(f"{name}: warm chose a different ordering")
        if cold_row["nodes"] > waterfall[name]["nodes"]:
            failures.append(
                f"{name}: searched result ({cold_row['nodes']} nodes) worse "
                f"than the fixed waterfall ({waterfall[name]['nodes']})")
    if report["warm_speedup"] < min_speedup:
        failures.append(f"warm speedup {report['warm_speedup']:.1f}x "
                        f"below the {min_speedup:.1f}x gate")
    if failures:
        print("ORCHESTRATE GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"orchestrate gate OK: warm {report['warm_speedup']:.1f}x "
          f">= {min_speedup:.1f}x, zero recomputes, bit-identical winners, "
          f"QoR never worse than the waterfall")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="2-benchmark CI smoke instead of the EPFL subset")
    parser.add_argument("--check", action="store_true",
                        help="gate: zero warm recomputes, >= --min-speedup")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="warm-over-cold wall-clock gate (default 5x)")
    parser.add_argument("--k", type=int, default=3,
                        help="candidate orderings per round (default 3)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="search rounds (default 2)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: fresh temp dir)")
    parser.add_argument("--output", default=REPORT_PATH,
                        help="report path (default BENCH_orchestrate.json)")
    args = parser.parse_args()

    benchmarks = QUICK_BENCHMARKS if args.quick else FULL_BENCHMARKS
    temp = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        temp = tempfile.mkdtemp(prefix="bench_orchestrate_")
        cache_dir = temp
    try:
        report = run_bench(benchmarks, args.k, args.rounds, cache_dir)
    finally:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
    report["quick"] = args.quick
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    if args.check:
        return check(report, args.min_speedup)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
