#!/usr/bin/env python3
"""Regression-gated benchmark harness for the production fast paths.

Runs per-engine microbenchmarks plus the EPFL-subset SBM flow, and
writes ``BENCH_hotpath.json`` with wall times, speedups, and structural
network checksums.  Every engine is measured **twice in-process**: once
on its production fast path and once on its frozen reference in
``tests/reference_paths.py``; the two payloads must be equal.  Each flow
runs once, under ``FlowConfig(verify_each_step=True)``.

Because both engine paths run in the same process on the same machine,
the *speedup ratio* is machine-independent in a way absolute seconds are
not; the regression gate (``--check``) therefore compares current ratios
against the ratios recorded in ``results/perf_baseline.txt`` and fails
when any engine lost more than ``--tolerance`` (default 25%) of its
baselined speedup, or when a flow checksum diverges from the baseline
(the flow must stay bit-identical, not just fast).

Usage:
    python scripts/bench_hotpath.py --quick          # CI smoke (~2 min)
    python scripts/bench_hotpath.py                  # full EPFL subset
    python scripts/bench_hotpath.py --quick --check  # gate vs baseline
    python scripts/bench_hotpath.py --write-baseline # refresh baseline
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, ROOT)  # the frozen references live in tests/

from repro.aig.simprogram import pack_rounds, sim_program, wide_mask  # noqa: E402
from repro.bdd.manager import BddManager                      # noqa: E402
from repro.bench.registry import get_benchmark                # noqa: E402
from repro.sbm.config import FlowConfig                       # noqa: E402
from repro.sbm.flow import sbm_flow                           # noqa: E402
from repro.tt.npn import _npn_canonical_reference, npn_canonical  # noqa: E402
from repro.tt.truthtable import TruthTable                    # noqa: E402
from tests import reference_paths as ref                      # noqa: E402

BASELINE_PATH = os.path.join(ROOT, "results", "perf_baseline.txt")
REPORT_PATH = os.path.join(ROOT, "BENCH_hotpath.json")

QUICK_FLOWS = ["router"]
FULL_FLOWS = ["router", "i2c", "cavlc", "priority"]


def checksum(aig) -> str:
    """Structural sha256 over the remapped topological order (16 hex)."""
    h = hashlib.sha256()
    h.update(f"{aig.num_pis}/{aig.num_pos}/".encode())
    order = aig.topological_order()
    remap = {0: 0}
    for i, p in enumerate(aig.pis()):
        remap[p] = i + 1
    for n in order:
        remap[n] = len(remap)
    for n in order:
        f0, f1 = aig.fanins(n)
        h.update(f"{remap[f0 >> 1]}.{f0 & 1},"
                 f"{remap[f1 >> 1]}.{f1 & 1};".encode())
    for po in aig.pos():
        h.update(f"o{remap[po >> 1]}.{po & 1};".encode())
    return h.hexdigest()[:16]


# -- engine microbenchmarks ---------------------------------------------------
#
# Each returns a (fast, reference) pair of callables: the production fast
# path and its frozen reference.  Their payloads must be equal
# (bit-identity spot check).

def bench_sim_multiround(bench: str, rounds: int):
    """Multi-round 64-bit simulation (the SAT-sweep / guard pattern): one
    wide compiled pass against per-round interpreted walks."""
    aig = get_benchmark(bench, scaled=True)

    def patterns():
        rng = random.Random(1)
        return [[rng.getrandbits(64) for _ in range(aig.num_pis)]
                for _ in range(rounds)]

    def fast():
        pattern_rounds = patterns()
        program = sim_program(aig)
        packed = pack_rounds(pattern_rounds)
        values = program.run(packed, wide_mask(rounds))
        out = 0
        mask64 = (1 << 64) - 1
        for r in range(rounds):
            shift = 64 * r
            for node, _c in program.pos:
                out ^= (values[node] >> shift) & mask64
        return out

    def reference():
        out = 0
        for words in patterns():
            values = ref.simulate_words(aig, words)
            for po in aig.pos():
                out ^= values[po >> 1]
        return out

    return fast, reference


def bench_npn(lookups: int):
    """Cut-function canonicalization with realistic repetition."""
    rng = random.Random(2)
    tables = [rng.getrandbits(16) for _ in range(300)]
    seq = [tables[rng.randrange(300)] for _ in range(lookups)]

    def run(canonical):
        acc = 0
        for bits in seq:
            canon, _t = canonical(TruthTable(bits, 4))
            acc ^= canon.bits
        return acc

    return partial(run, npn_canonical), partial(run, _npn_canonical_reference)


def bench_bdd(num_vars: int, ops: int):
    """Random AND/OR/XOR build-up, the SBM window workload shape."""

    def run(manager_cls):
        mgr = manager_cls(num_vars)
        nodes = [mgr.var(i) for i in range(num_vars)]
        rng = random.Random(7)
        acc = 0
        for _ in range(ops):
            a, b = rng.choice(nodes), rng.choice(nodes)
            op = rng.randrange(3)
            if op == 0:
                n = mgr.apply_and(a, b)
            elif op == 1:
                n = mgr.apply_xor(a, b)
            else:
                n = mgr.apply_or(a, b)
            nodes.append(n)
            acc ^= n
            if len(nodes) > 600:
                del nodes[:200]
        return acc

    return partial(run, BddManager), partial(run, ref.ReferenceBddManager)


def bench_simresub(bench: str):
    """Simulation-guided resubstitution: signature filter + budgeted SAT.

    The fast path simulates the pattern store in one compiled pass; the
    reference swaps ``PatternStore.signatures`` for its frozen per-round
    form.  The payload (engine counters + structural checksum of the
    optimized network) must be bit-identical across both.
    """
    from repro.sbm.config import SimresubConfig
    from repro.sbm.simresub import simresub_pass

    def fast():
        aig = get_benchmark(bench, scaled=True)
        stats = simresub_pass(aig, SimresubConfig())
        return (stats.candidates_proposed, stats.candidates_validated,
                stats.candidates_refuted, stats.cex_patterns, stats.rewrites,
                stats.gain, checksum(aig.cleanup()))

    def reference():
        with ref.frozen_signatures():
            return fast()

    return fast, reference


def measure(run, repeats: int = 1):
    """Best-of-*repeats* wall time plus the payload for identity checks."""
    best = None
    payload = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        payload = run()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, payload


def run_engines(quick: bool):
    if quick:
        engines = {
            "sim_multiround": bench_sim_multiround("i2c", 16),
            "npn": bench_npn(1000),
            "bdd": bench_bdd(12, 800),
            "simresub": bench_simresub("i2c"),
        }
    else:
        engines = {
            "sim_multiround": bench_sim_multiround("i2c", 16),
            "npn": bench_npn(2000),
            "bdd": bench_bdd(14, 4000),
            "simresub": bench_simresub("priority"),
        }
    results = {}
    for name, (fast, reference) in engines.items():
        hot_s, hot_payload = measure(fast)
        ref_s, ref_payload = measure(reference)
        if hot_payload != ref_payload:
            raise SystemExit(f"BIT-IDENTITY VIOLATION in engine {name!r}: "
                             f"hot {hot_payload!r} != ref {ref_payload!r}")
        results[name] = {
            "hot_s": round(hot_s, 4),
            "ref_s": round(ref_s, 4),
            "speedup": round(ref_s / hot_s, 2) if hot_s > 0 else None,
        }
        print(f"  {name:16s} ref {ref_s:8.3f}s  hot {hot_s:8.3f}s  "
              f"({ref_s / hot_s:5.2f}x)", flush=True)
    return results


def run_flows(names):
    results = {}
    for name in names:
        aig = get_benchmark(name, scaled=True)
        t0 = time.perf_counter()
        res, _stats = sbm_flow(aig, FlowConfig(verify_each_step=True))
        wall_s = time.perf_counter() - t0
        results[name] = {
            "wall_s": round(wall_s, 3),
            "size": res.num_ands,
            "depth": res.depth,
            "checksum": checksum(res),
        }
        print(f"  flow {name:10s} {wall_s:8.1f}s  size {res.num_ands}  "
              f"checksum {results[name]['checksum']}", flush=True)
    return results


# -- baseline file ------------------------------------------------------------

def write_baseline(report, cmdline: str) -> None:
    lines = [
        "# fast-path performance baseline",
        f"# regenerate with: {cmdline}",
        f"# mode: {'quick' if report['quick'] else 'full'}",
        "# columns: kind name ref_s hot_s speedup checksum",
    ]
    for name, e in report["engines"].items():
        lines.append(f"engine {name} {e['ref_s']} {e['hot_s']} "
                     f"{e['speedup']} -")
    for name, e in report["flows"].items():
        lines.append(f"flow {name} - {e['wall_s']} - {e['checksum']}")
    os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
    with open(BASELINE_PATH, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"baseline written to {BASELINE_PATH}")


def read_baseline():
    entries = {}
    if not os.path.exists(BASELINE_PATH):
        return entries
    with open(BASELINE_PATH) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# mode:"):
                entries["mode"] = line.split(":", 1)[1].strip()
                continue
            if not line or line.startswith("#"):
                continue
            kind, name, ref_s, hot_s, speedup, csum = line.split()
            entries[(kind, name)] = {
                "ref_s": None if ref_s == "-" else float(ref_s),
                "hot_s": float(hot_s),
                "speedup": None if speedup == "-" else float(speedup),
                "checksum": None if csum == "-" else csum,
            }
    return entries


def check_regressions(report, tolerance: float) -> int:
    """0 when no engine lost > tolerance of its baselined speedup."""
    baseline = read_baseline()
    if not baseline:
        print(f"no baseline at {BASELINE_PATH}; run --write-baseline first")
        return 1
    mode = "quick" if report["quick"] else "full"
    base_mode = baseline.pop("mode", None)
    engines_comparable = base_mode is None or base_mode == mode
    if not engines_comparable:
        print(f"baseline is {base_mode}-mode, this run is {mode}-mode: "
              "engine workloads differ, gating flows/checksums only")
    failures = []
    for name, e in report["engines"].items():
        base = baseline.get(("engine", name))
        if (not engines_comparable or base is None
                or base["speedup"] is None or e["speedup"] is None):
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if e["speedup"] < floor:
            failures.append(
                f"engine {name}: speedup {e['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x "
                f"- {tolerance:.0%} tolerance)")
    for name, e in report["flows"].items():
        base = baseline.get(("flow", name))
        if base is None:
            continue
        if base["checksum"] and e["checksum"] != base["checksum"]:
            failures.append(
                f"flow {name}: checksum {e['checksum']} != baseline "
                f"{base['checksum']} (flow no longer bit-identical)")
    for f in failures:
        print(f"REGRESSION: {f}")
    if not failures:
        print("regression gate passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: router flow + reduced microbenches")
    parser.add_argument("--check", action="store_true",
                        help="fail on >tolerance speedup regression or "
                             "checksum divergence vs results/perf_baseline.txt")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional speedup loss (default 0.25)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="refresh results/perf_baseline.txt")
    parser.add_argument("--output", default=REPORT_PATH,
                        help="report path (default BENCH_hotpath.json)")
    args = parser.parse_args()

    cmdline = "python scripts/bench_hotpath.py " + " ".join(sys.argv[1:])
    flows = QUICK_FLOWS if args.quick else FULL_FLOWS
    print("engine microbenchmarks (fast vs frozen reference, same process):")
    engines = run_engines(args.quick)
    print("SBM flows (verify_each_step=True):")
    flow_results = run_flows(flows)

    report = {
        "schema": "bench_hotpath_v1",
        "cmdline": cmdline,
        "quick": args.quick,
        "engines": engines,
        "flows": flow_results,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"report written to {args.output}")

    if args.write_baseline:
        write_baseline(report, cmdline)
    if args.check:
        return check_regressions(report, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
