"""One measurement in a fresh process: ``python3 child.py '<json request>'``.

The request names the workload, seed, seconds, mode (``setup`` stops once
the workload is ready; ``measure`` also runs the timed rounds), whether to
trace, whether to correct times for the machine's speed, and the scratch
directory.  ``repro`` must be importable (``run.py``
sets ``PYTHONPATH``).  The child prints one JSON object on its last stdout
line.

``setup_s`` runs from the OS start time of this process (so interpreter
start counts, as it does for every ``python -m repro`` call) until the
workload is ready to time.  With ``speed`` on, every time reported is
corrected for the machine's speed (``speed.py``) and the raw wall times
come along as ``raw_*``; otherwise the times are raw.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import speed

clock = speed.clock


def process_age() -> float:
    """Seconds since the OS started this process."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        stat = handle.read()
    # Field 22 (starttime, in clock ticks since boot) counts from 3 after
    # the parenthesised command name.
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(request: dict) -> dict:
    meter = speed.Speedometer() if request["speed"] else None
    if meter is not None:
        meter.start()
    try:
        return run(request, meter)
    finally:
        if meter is not None:
            meter.stop()


def run(request: dict, meter) -> dict:
    t_import = clock()
    import workloads   # imports repro
    import_s = clock() - t_import

    scratch = tempfile.mkdtemp(prefix="run-", dir=request["scratch"])
    workload = workloads.WORKLOADS[request["workload"]](request["seed"],
                                                        scratch)
    try:
        t_inputs = clock()
        workload.make_inputs()
        inputs_s = clock() - t_inputs
        t_fill = clock()
        workload.setup()
        ready = clock()
        fill_s = ready - t_fill
        raw_setup_s = process_age()
        setup_s = raw_setup_s if meter is None \
            else meter.corrected(ready - raw_setup_s, ready)
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
                  "import_s": import_s, "inputs_s": inputs_s,
                  "fill_s": fill_s}
        if request["mode"] == "setup":
            return result
        result.update(measure(workload, request, meter))
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, request: dict, meter) -> dict:
    """Timed rounds until ``seconds`` are used, then the checks."""
    tracer = None
    if request["trace"]:
        import layers
        import tracer as tracing
        # The workload itself calls sbm_flow and run_campaign.
        tracer = tracing.Tracer(callers=("repro", "workloads"))
        layers.install(tracer)
    seconds = request["seconds"]
    spans, walls, worker_cpu = [], [], []
    attempted = failed = 0
    ands = levels = None
    errors = []
    while True:
        workload.before_round()
        cpu0 = children_cpu_s()
        with tracer.span("run") if tracer else contextlib.nullcontext():
            t0 = clock()
            outcomes = workload.round()
            t1 = clock()
        spans.append((t0, t1))
        walls.append(t1 - t0 if meter is None else meter.corrected(t0, t1))
        worker_cpu.append(children_cpu_s() - cpu0)
        round_ands = round_levels = 0
        for outcome in outcomes:
            attempted += 1
            problem = workload.verify(outcome)
            if problem is not None:
                failed += 1
                errors.append(f"{outcome.label}: {problem}")
                continue
            round_ands += outcome.result.num_ands
            round_levels += outcome.result.depth
        if ands is None:
            ands, levels = round_ands, round_levels
        elif (ands, levels) != (round_ands, round_levels):
            errors.append("result size changed between rounds")
        # Start another round only if it should end within the budget.
        if sum(walls) + statistics.median(walls) > seconds:
            break
    raw_walls = [t1 - t0 for t0, t1 in spans]
    if meter is not None:
        # Samples taken after a round now bracket it as well.
        meter.sample()
        walls = [meter.corrected(t0, t1) for t0, t1 in spans]
    result = {
        "rounds": len(walls), "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "ands": ands, "levels": levels,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worker_cpu_s": statistics.median(worker_cpu),
        "worker_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        if tracer.threads != 1:
            result["errors"].append(
                f"spans on {tracer.threads} threads: self times would "
                "count concurrent work twice")
        result["totals"] = {layer: list(value)
                            for layer, value in tracer.totals().items()}
        result["counts"] = dict(tracer.counts)
        result["spans"] = tracer.write(request["trace_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
