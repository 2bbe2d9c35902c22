#!/usr/bin/env python3
"""Benchmark harness for the ``repro.campaign`` result cache.

Runs one campaign three times against the same cache directory:

1. **cold** — empty cache, every job is a miss and gets committed;
2. **warm** — same jobs again, every job must hit and decode to a network
   bit-identical to the cold result (the warm == cold contract);
3. **partial** — a subset of entries is invalidated (deleted), so the
   campaign recomputes exactly those jobs and hits on the rest.

Writes ``BENCH_campaign.json`` with wall times, hit/miss counters, the
realized warm-over-cold speedup, and structural checksums of every job's
result network.  The gate (``--check``) is machine-independent — it
asserts *behavior*, not absolute seconds:

* warm runs at least ``--min-speedup`` (default 5×) faster than cold,
* warm and partial checksums equal the cold checksums on every job,
* warm is all hits; partial misses exactly the invalidated jobs,
* the cold checksums equal those of the report at ``--output`` that the
  run is about to replace (the committed ``BENCH_campaign.json`` by
  default), on every benchmark both list, so a stale report fails.

Usage:
    python scripts/bench_campaign.py --quick          # CI smoke (~1 min)
    python scripts/bench_campaign.py                  # full EPFL subset
    python scripts/bench_campaign.py --quick --check  # gate the contract
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

from repro.aig import checksum                                 # noqa: E402
from repro.campaign import jobs_from_benchmarks, run_campaign  # noqa: E402
from repro.sbm.config import FlowConfig                        # noqa: E402

REPORT_PATH = os.path.join(ROOT, "BENCH_campaign.json")

QUICK_BENCHMARKS = ["router", "i2c"]
FULL_BENCHMARKS = ["router", "i2c", "cavlc", "priority", "arbiter", "bar",
                   "adder", "max", "square"]


def run_once(benchmarks, cache_dir: str, workers: int, label: str) -> dict:
    """One campaign pass; returns its measurement record."""
    jobs = jobs_from_benchmarks(benchmarks, config=FlowConfig(iterations=1))
    start = time.perf_counter()
    report = run_campaign(jobs, cache_dir=cache_dir, workers=workers,
                          suite=f"bench-{label}")
    wall = time.perf_counter() - start
    record = {
        "label": label,
        "wall_s": wall,
        "hits": report.hits,
        "misses": report.misses,
        "errors": report.errors,
        "corrupt_entries": report.corrupt_entries,
        "stolen_windows": report.stolen_windows,
        "checksums": {row.name: checksum(row.network)
                      for row in report.results if row.network is not None},
        "outcomes": {row.name: row.outcome for row in report.results},
    }
    print(f"{label:8s} wall={wall:7.2f}s  hits={report.hits}  "
          f"misses={report.misses}  errors={report.errors}")
    return record


def invalidate(cache_dir: str, keys_to_drop: int) -> int:
    """Delete *keys_to_drop* entry files from the cache; returns the count."""
    entries = []
    for dirpath, _dirnames, filenames in os.walk(cache_dir):
        entries.extend(os.path.join(dirpath, name)
                       for name in filenames if name.endswith(".json"))
    entries.sort()  # deterministic victim selection
    victims = entries[:keys_to_drop]
    for path in victims:
        os.unlink(path)
    return len(victims)


def run_bench(benchmarks, workers: int, cache_dir: str) -> dict:
    cold = run_once(benchmarks, cache_dir, workers, "cold")
    warm = run_once(benchmarks, cache_dir, workers, "warm")
    dropped = invalidate(cache_dir, max(1, len(benchmarks) // 2))
    partial = run_once(benchmarks, cache_dir, workers, "partial")
    speedup = cold["wall_s"] / max(warm["wall_s"], 1e-9)
    print(f"warm speedup: {speedup:.1f}x  "
          f"(invalidated {dropped} entries for the partial pass)")
    return {
        "schema": "repro.campaign/bench-v1",
        "benchmarks": list(benchmarks),
        "workers": workers,
        "invalidated": dropped,
        "cold": cold,
        "warm": warm,
        "partial": partial,
        "warm_speedup": speedup,
    }


def previous_checksums(path: str) -> dict:
    """Cold checksums of the report at *path* ({} when there is none)."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["cold"]["checksums"]


def check(report: dict, min_speedup: float, previous: dict,
          refresh: str) -> int:
    """Gate the cache contract; returns a process exit status.

    *previous* holds the cold checksums of the report this run replaces;
    *refresh* is the command that rewrites it.
    """
    failures = []
    cold, warm, partial = report["cold"], report["warm"], report["partial"]
    stale = sorted(name for name, value in previous.items()
                   if cold["checksums"].get(name, value) != value)
    if stale:
        failures.append(f"cold checksums of {', '.join(stale)} differ from "
                        f"the replaced report (stale report or changed "
                        f"flow); refresh it with `{refresh}` and commit it")
    for run in (cold, warm, partial):
        if run["errors"]:
            failures.append(f"{run['label']}: {run['errors']} job errors")
    if warm["checksums"] != cold["checksums"]:
        failures.append("warm checksums differ from cold "
                        "(warm == cold bit-identity broken)")
    if partial["checksums"] != cold["checksums"]:
        failures.append("partial checksums differ from cold")
    if warm["misses"] != 0:
        failures.append(f"warm run missed {warm['misses']} jobs "
                        f"(expected all hits)")
    expected_misses = report["invalidated"]
    if partial["misses"] != expected_misses:
        failures.append(f"partial run missed {partial['misses']} jobs, "
                        f"expected exactly {expected_misses}")
    if report["warm_speedup"] < min_speedup:
        failures.append(f"warm speedup {report['warm_speedup']:.1f}x "
                        f"below the {min_speedup:.1f}x gate")
    if failures:
        print("CAMPAIGN CACHE GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"campaign cache gate OK: warm {report['warm_speedup']:.1f}x "
          f">= {min_speedup:.1f}x, bit-identical across all passes")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="2-benchmark CI smoke instead of the EPFL subset")
    parser.add_argument("--check", action="store_true",
                        help="gate: warm >= --min-speedup, bit-identical, "
                             "cold checksums equal the replaced report's")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="warm-over-cold wall-clock gate (default 5x)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="shared-pool workers (1 = serial inline)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: fresh temp dir)")
    parser.add_argument("--output", default=REPORT_PATH,
                        help="report path (default BENCH_campaign.json)")
    args = parser.parse_args()

    benchmarks = QUICK_BENCHMARKS if args.quick else FULL_BENCHMARKS
    previous = previous_checksums(args.output)
    temp = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        temp = tempfile.mkdtemp(prefix="bench_campaign_")
        cache_dir = temp
    try:
        report = run_bench(benchmarks, args.jobs, cache_dir)
    finally:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
    report["quick"] = args.quick
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    if args.check:
        refresh = "python scripts/bench_campaign.py" + (
            " --quick" if args.quick else "")
        if args.output != REPORT_PATH:
            refresh += f" --output {args.output}"
        return check(report, args.min_speedup, previous, refresh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
