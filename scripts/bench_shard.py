#!/usr/bin/env python3
"""Fleet verifier for the sharded campaign (``repro.campaign.shard``).

Runs the same suite two ways against fresh caches and asserts the fleet
contract — the combined output of N shard workers equals a single
worker's, key for key and bit for bit:

1. **solo** — one worker runs every job into one cache;
2. **fleet** — the deterministic shard planner splits the jobs into N
   disjoint shards; each shard runs into its own cache, packs it to an
   archive (``repro.campaign.sync``), and the archives merge into one
   combined cache;
3. **warm** — the whole suite reruns against the merged cache and must
   be all hits with zero misses (every worker benefits from every other
   worker's cold work).

The gate (``--check``) is machine-independent — it asserts behavior,
never absolute seconds:

* every job lands on exactly one shard (disjoint cover);
* the merged cache inventory (key → payload digest, both slots) equals
  the solo cache's — same keys, bit-identical result payloads (the
  payload excludes only the cold run's wall-time telemetry, which is
  measurement, not result);
* the fleet's combined per-job report rows (key, outcome, node counts)
  equal the solo rows, in suite order;
* the warm cross-shard rerun has zero misses, zero errors, and networks
  bit-identical to solo;
* a second merge of the same archives is a pure no-op (idempotence).

Usage:
    python scripts/bench_shard.py --quick --check   # CI smoke (2 shards)
    python scripts/bench_shard.py --check           # full gate (3 shards)
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
from repro.campaign import (                                   # noqa: E402
    cache_inventory,
    jobs_from_benchmarks,
    merge_cache,
    pack_cache,
    plan_shards,
    run_campaign,
)
from repro.sbm.config import FlowConfig                        # noqa: E402

REPORT_PATH = os.path.join(ROOT, "BENCH_shard.json")

QUICK_BENCHMARKS = ["router", "i2c", "cavlc", "priority"]
FULL_BENCHMARKS = ["router", "i2c", "cavlc", "priority", "arbiter", "bar",
                   "adder", "max", "square"]


def rows_of(report) -> dict:
    """The determinism-covered slice of every job row, keyed by name."""
    return {row.name: {"key": row.key, "outcome": row.outcome,
                       "nodes_before": row.nodes_before,
                       "nodes_after": row.nodes_after}
            for row in report.results}


def run_pass(jobs, cache_dir: str, workers: int, label: str,
             shard=None) -> tuple:
    """One campaign pass; returns (report, measurement record)."""
    start = time.perf_counter()
    report = run_campaign(jobs, cache_dir=cache_dir, workers=workers,
                          suite=f"bench-shard-{label}", shard=shard)
    wall = time.perf_counter() - start
    record = {
        "label": label,
        "wall_s": wall,
        "jobs": report.jobs,
        "hits": report.hits,
        "misses": report.misses,
        "errors": report.errors,
        "rows": rows_of(report),
        "checksums": {row.name: checksum(row.network)
                      for row in report.results if row.network is not None},
    }
    print(f"{label:12s} wall={wall:7.2f}s  jobs={report.jobs}  "
          f"hits={report.hits}  misses={report.misses}  "
          f"errors={report.errors}")
    return report, record


def run_bench(benchmarks, shards: int, workers: int, workdir: str) -> dict:
    jobs = jobs_from_benchmarks(benchmarks, config=FlowConfig(iterations=1))
    solo_dir = os.path.join(workdir, "solo_cache")
    merged_dir = os.path.join(workdir, "merged_cache")

    _solo_report, solo = run_pass(jobs, solo_dir, workers, "solo")

    plan = plan_shards(jobs, shards)
    covered = sorted(p for i in range(shards) for p in plan.positions(i))
    disjoint = covered == list(range(len(jobs)))
    print(f"plan ({plan.planner}): "
          + "  ".join(f"shard{i}={len(plan.positions(i))}"
                      for i in range(shards)))

    archives = []
    shard_records = []
    for index in range(shards):
        shard_dir = os.path.join(workdir, f"shard{index}_cache")
        selected = plan.select(jobs, index)
        report, record = run_pass(selected, shard_dir, workers,
                                  f"shard {index}/{shards}",
                                  shard=plan.tag(index))
        archive = os.path.join(workdir, f"shard{index}.tar.gz")
        manifest = pack_cache(shard_dir, archive,
                              slot_stats=report.cache_slots)
        record["packed_entries"] = len(manifest["entries"])
        archives.append(archive)
        shard_records.append(record)

    merge_report = merge_cache(archives, merged_dir)
    print(merge_report.describe())
    remerge = merge_cache(archives, merged_dir)

    # The fleet's combined report: shard rows reassembled in suite order.
    fleet_rows = {}
    for record in shard_records:
        fleet_rows.update(record["rows"])
    fleet_rows = {job.name: fleet_rows.get(job.name) for job in jobs}

    _warm_report, warm = run_pass(jobs, merged_dir, workers, "warm")

    return {
        "schema": "repro.campaign/bench-shard-v1",
        "benchmarks": list(benchmarks),
        "shards": shards,
        "workers": workers,
        "plan": plan.to_dict(),
        "disjoint_cover": disjoint,
        "solo": solo,
        "fleet": shard_records,
        "fleet_rows": fleet_rows,
        "merge": merge_report.to_dict(),
        "remerge": remerge.to_dict(),
        "solo_inventory": cache_inventory(solo_dir),
        "merged_inventory": cache_inventory(merged_dir),
        "warm": warm,
    }


def check(report: dict) -> int:
    """Gate the fleet contract; returns a process exit status."""
    failures = []
    solo, warm = report["solo"], report["warm"]
    for record in [solo, warm] + report["fleet"]:
        if record["errors"]:
            failures.append(f"{record['label']}: {record['errors']} "
                            f"job errors")
    if not report["disjoint_cover"]:
        failures.append("shard plan is not a disjoint cover of the suite")
    if report["merged_inventory"] != report["solo_inventory"]:
        solo_keys = {slot: sorted(keys)
                     for slot, keys in report["solo_inventory"].items()}
        merged_keys = {slot: sorted(keys)
                       for slot, keys in report["merged_inventory"].items()}
        if solo_keys != merged_keys:
            failures.append("merged cache keys differ from solo keys")
        else:
            failures.append("merged cache payloads differ from solo "
                            "(bit-identity broken)")
    if report["fleet_rows"] != solo["rows"]:
        failures.append("fleet job rows differ from the single-worker rows")
    if warm["misses"] != 0:
        failures.append(f"warm cross-shard rerun missed {warm['misses']} "
                        f"jobs (expected zero: every shard's work must be "
                        f"visible after the merge)")
    if warm["checksums"] != solo["checksums"]:
        failures.append("warm networks differ from solo (bit-identity "
                        "broken)")
    if report["merge"]["corrupt_skipped"]:
        failures.append(f"merge skipped {report['merge']['corrupt_skipped']} "
                        f"corrupt entr(ies)")
    if report["remerge"]["imported"] != 0:
        failures.append(f"re-merge imported "
                        f"{report['remerge']['imported']} entr(ies) "
                        f"(expected an idempotent no-op)")
    store_failures = sum(report["merge"]["store_failures"].values())
    if store_failures:
        failures.append(f"shards recorded {store_failures} cache store "
                        f"failure(s)")
    if failures:
        print("SHARD FLEET GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    total = sum(len(keys) for keys in report["solo_inventory"].values())
    print(f"shard fleet gate OK: {report['shards']} merged shards == "
          f"1 worker on {total} cache entr(ies), warm rerun all hits, "
          f"re-merge idempotent")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="4-benchmark, 2-shard CI smoke")
    parser.add_argument("--check", action="store_true",
                        help="gate: merged == solo, warm all hits")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: 2 quick, 3 full)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="shared-pool workers per campaign pass")
    parser.add_argument("--output", default=REPORT_PATH,
                        help="report path (default BENCH_shard.json)")
    args = parser.parse_args()

    benchmarks = QUICK_BENCHMARKS if args.quick else FULL_BENCHMARKS
    shards = args.shards if args.shards is not None \
        else (2 if args.quick else 3)
    if shards < 1:
        parser.error("--shards must be >= 1")
    workdir = tempfile.mkdtemp(prefix="bench_shard_")
    try:
        report = run_bench(benchmarks, shards, args.jobs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["quick"] = args.quick
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.output}")
    if args.check:
        return check(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
