"""Serial vs parallel wall time of the partitioned SBM passes.

Runs the same partitioned pass inline (the exact serial path) and on a
``cpu_count``-wide :class:`~repro.parallel.shared_pool.SharedProcessPool`
through :mod:`repro.parallel`, reports both wall times and the realized
speedup, and asserts the contract that makes the knob safe to flip: the
two runs produce node-for-node identical networks.  The pool is built
before the timed pass, as a flow builds it once per run.

On a single-core runner the parallel run only measures the process-pool
overhead (speedup ≈ 1 or below); on multi-core machines the speedup
approaches ``min(jobs, windows)`` for the window-dominated passes.  Set
``REPRO_BENCH_FULL=1`` to sweep every engine instead of the representative
kernel pass.
"""

import os
import time

import pytest

from benchmarks.conftest import full_run
from tests.conftest import make_random_aig
from repro.parallel import CompactAig, PartitionScheduler
from repro.parallel.shared_pool import SharedProcessPool
from repro.partition.partitioner import PartitionConfig
from repro.sbm import boolean_difference, hetero_kernel, mspf
from repro.sbm.config import BooleanDifferenceConfig, KernelConfig, MspfConfig

#: Small windows -> many schedulable tasks even on a test-sized network.
PARTS = PartitionConfig(max_levels=6, max_size=80, max_leaves=24)

ENGINES = [
    ("kernel", hetero_kernel.optimize_subaig,
     lambda: KernelConfig(partition=PARTS)),
    ("mspf", mspf.optimize_subaig, lambda: MspfConfig(partition=PARTS)),
    ("bdiff", boolean_difference.optimize_subaig,
     lambda: BooleanDifferenceConfig(partition=PARTS)),
]


def _network():
    # Few PIs -> a redundant network the engines actually improve, so the
    # determinism assertion compares non-trivial merges.
    return make_random_aig(10, 2000, seed=77)


def _signature(aig):
    c = CompactAig.from_aig(aig)
    return (c.num_pis, tuple(c.gates), tuple(c.outputs))


def _timed_pass(engine, worker, make_config, pool=None):
    aig = _network()
    start = time.perf_counter()
    report = PartitionScheduler(pool=pool).run_pass(
        aig, engine, worker, make_config(), partition_config=PARTS)
    return aig, report, time.perf_counter() - start


@pytest.mark.parametrize("engine,worker,make_config", ENGINES,
                         ids=[e[0] for e in ENGINES])
def test_bench_serial_vs_parallel(engine, worker, make_config, benchmark):
    if not full_run() and engine != "kernel":
        pytest.skip("representative subset; REPRO_BENCH_FULL=1 for all")
    jobs = os.cpu_count() or 1

    serial_aig, serial_report, serial_s = _timed_pass(engine, worker,
                                                      make_config)
    with SharedProcessPool(jobs) as pool:
        parallel_aig, parallel_report, parallel_s = benchmark.pedantic(
            _timed_pass, args=(engine, worker, make_config, pool),
            iterations=1, rounds=1)

    speedup = serial_s / parallel_s if parallel_s > 0 else 1.0
    print()
    print(f"{engine}: windows={serial_report.num_windows} "
          f"applied={serial_report.num_applied} "
          f"gain={serial_report.total_gain}")
    print(f"  serial   (jobs=1):  {serial_s:7.2f}s")
    print(f"  parallel (jobs={jobs}): {parallel_s:7.2f}s  "
          f"speedup={speedup:.2f}x")
    print(parallel_report.format_report())

    # The contract that makes the jobs knob safe: identical graphs.
    assert _signature(parallel_aig) == _signature(serial_aig)
    assert parallel_report.num_windows == serial_report.num_windows
    assert parallel_report.total_gain == serial_report.total_gain
