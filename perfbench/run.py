"""Benchmark of the SBM synthesis flow: result quality and time end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload control --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every measurement runs in a fresh interpreter (``child.py``), so set-up
time includes interpreter start and ``import repro``.  See README.md for
the workloads and what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("control", "verified", "campaign", "replay")

#: name -> unit of the end-to-end metrics, reported on every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "ands": "nodes", "levels": "levels", "success_rate": "ratio"}

#: Fresh processes whose set-up time is measured per run (the median is
#: reported).  A replay set-up runs a whole cold campaign, so it gets fewer.
SETUP_SAMPLES = {"control": 5, "verified": 5, "campaign": 5, "replay": 2}

#: Per-layer metrics that must be non-zero in a traced run of a workload:
#: a zero means a wrapper is patched at a name no caller uses.
MUST_BE_ACTIVE = {
    "control": ("sbm.gradient.moves", "sbm.kernel.windows",
                "sop.kernels.calls", "bdd.ops.calls", "aig.cleanup.calls",
                "aig.sim.calls", "partition.self_s", "opt.aig_script.self_s"),
    "verified": ("guard.check.calls", "sat.solve.calls", "sat.cec.calls",
                 "bdd.ops.calls", "sat.sweep.self_s"),
    "campaign": ("parallel.windows", "parallel.wait_s",
                 "parallel.worker_cpu_s", "campaign.key.calls",
                 "campaign.store.calls", "orchestrate.candidates",
                 "window_io.encode.calls"),
    "replay": ("campaign.lookup.calls", "campaign.hit_ratio",
               "campaign.key.calls", "window_io.decode.calls"),
}

#: Whole-run budget: a run must end within 180 s.
BUDGET_S = 175.0


class ChildFailed(RuntimeError):
    pass


def run_child(request: dict, deadline: float) -> dict:
    """Run ``child.py`` in a fresh process group; return its JSON result.

    On timeout the whole group (the child and its pool workers) is killed
    and waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=request["scratch"])
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise ChildFailed(f"{request['workload']} ran out of time")
    _kill_group(proc)   # reap any stray grandchild
    if proc.returncode != 0:
        raise ChildFailed(f"{request['workload']} child exited "
                          f"{proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill what is left of *proc*'s process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(1000):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def end_to_end(workload: str, seed: int, seconds: int, deadline: float,
               scratch: str) -> dict:
    base = {"scratch": scratch, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": False, "speed": True}
    children = [run_child(dict(base, mode="setup"), deadline)
                for _ in range(SETUP_SAMPLES[workload] - 1)]
    main = run_child(dict(base, mode="measure"), deadline)
    children.append(main)
    setups = [child["setup_s"] for child in children]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": main["wall_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "ands": main["ands"],
        "levels": main["levels"],
        "success_rate": 1.0 - main["failed"] / main["attempted"],
    }
    # Uncorrected wall times, printed for reference only.
    raw = {"setup_s": statistics.median(child["raw_setup_s"]
                                        for child in children),
           "wall_s": main["raw_wall_s"]}
    return {"correct": main["failed"] == 0 and not main["errors"],
            "attempted": main["attempted"], "failed": main["failed"],
            "errors": main["errors"], "raw": raw,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def per_layer(workload: str, seed: int, seconds: int, deadline: float,
              scratch: str) -> dict:
    # Uncorrected on both sides: self times are wall times, and the
    # speedometer's handler would land in whatever span is open.
    base = {"scratch": scratch, "workload": workload, "seed": seed,
            "seconds": seconds, "mode": "measure", "speed": False}
    plain = run_child(dict(base, trace=False), deadline)
    trace_path = str(WORK / f"trace-{workload}-seed{seed}.jsonl")
    traced = run_child(dict(base, trace=True, trace_path=trace_path),
                       deadline)
    errors = plain["errors"] + traced["errors"]
    if (plain["ands"], plain["levels"]) != (traced["ands"], traced["levels"]):
        errors.append("tracing changed the result networks: ands/levels "
                      f"{plain['ands']}/{plain['levels']} untraced, "
                      f"{traced['ands']}/{traced['levels']} traced")
    worker_cpu = traced["worker_cpu_s"]
    extra = {
        "setup.import_s": traced["import_s"],
        "setup.inputs_s": traced["inputs_s"],
        "setup.fill_s": traced["fill_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "parallel.worker_cpu_s": worker_cpu,
        # The maximum covers every reaped child; only a timed phase that
        # used pool workers can claim it.
        "parallel.worker_rss_mb": traced["worker_rss_mb"] if worker_cpu
        else 0.0,
    }
    values = layers.derive({k: tuple(v) for k, v in traced["totals"].items()},
                           traced["counts"], traced["rounds"], extra)
    for name in MUST_BE_ACTIVE[workload]:
        if not values[name]:
            errors.append(f"{name} is zero: that layer recorded nothing")
    return {"correct": traced["failed"] == 0 and not errors,
            "attempted": traced["attempted"], "failed": traced["failed"],
            "errors": errors,
            "metrics": {name: {"value": values[name],
                               "unit": layers.METRICS[name][0]}
                        for name in layers.METRICS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    results = {}
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
        try:
            results[name] = measure(name, args.seed, args.seconds, deadline,
                                    scratch)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        result = results[name]
        for error in result["errors"]:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            note = ("  (thread timing: not for claims)"
                    if metric in layers.TIMING_DEPENDENT else "")
            print(f"{name:9s} {metric:28s} {entry['value']:14.6g} "
                  f"{entry['unit']}{note}")
        for metric, value in result.get("raw", {}).items():
            print(f"{name:9s} {metric + ' uncorrected':28s} {value:14.6g} s")
    if len(results) == 1:
        result = next(iter(results.values()))
        summary = {key: result[key]
                   for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, result in results.items()
                        for metric, entry in result["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
