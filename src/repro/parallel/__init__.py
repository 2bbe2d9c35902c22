"""Process-parallel partition execution for the SBM flow.

The paper bounds every Boolean method inside independent partitions
(Section III-B); this package schedules those partitions over worker
processes.  See :mod:`repro.parallel.scheduler` for the execution model
(snapshot → execute → deterministic merge),
:mod:`repro.parallel.shared_pool` for the one process pool windows run on,
:mod:`repro.parallel.window_io` for the picklable window transport, and
:mod:`repro.parallel.stats` for the per-window telemetry.
"""

from repro.parallel.scheduler import PartitionScheduler, run_window_task
from repro.parallel.stats import ParallelReport, WindowRecord
from repro.parallel.window_io import (
    CompactAig,
    WindowResult,
    WindowTask,
    extract_task,
    whole_network_window,
)

__all__ = [
    "CompactAig",
    "ParallelReport",
    "PartitionScheduler",
    "WindowRecord",
    "WindowResult",
    "WindowTask",
    "extract_task",
    "run_window_task",
    "whole_network_window",
]
