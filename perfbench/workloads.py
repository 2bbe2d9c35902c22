"""The benchmark's workloads: inputs made from a seed, set-up, timed rounds.

A workload's *round* is one pass over all of its operations; a run
measures one round and more while they fit in ``--seconds``.  The seed
reaches only the input generators.  It sets the generator seed of one
small ``control_function`` controller per workload; the other designs are
the registry's fixed scaled benchmarks.  Measured on this code, a flow's
run time swings by up to 6x between two generated designs of the same
profile (``cavlc_like`` took 10.6-22.3 s over eight seeds, a 10-input
controller 0.13-0.76 s over ten), so a seed-dependent design that
dominated a round would make every timing spread with the seed.  The
8-input controller takes 0.05-0.36 s, a few percent of a round.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.control import control_function
from repro.bench.registry import get_benchmark
from repro.campaign import CampaignJob, run_campaign
from repro.sbm import FlowConfig, sbm_flow
from repro.sbm.config import OrchestrateConfig

import evaluator

#: The campaign's pool width: the two vCPUs of the measuring machine.
CAMPAIGN_WORKERS = 2
#: Jobs run one at a time; their windows still share the pool.  With two
#: job threads the cold campaign's wall time spread 16 % between runs of
#: identical code on two vCPUs (priority included), with one thread 3 %.
CAMPAIGN_THREADS = 1
#: Cache outcomes a job may have on a cold and on a warm cache.
COLD = ("miss", "dedup")
WARM = ("hit", "dedup")


def seeded_controller(seed: int):
    """The workload's seeded design: 8 inputs, 4 outputs (checked
    exhaustively); ``seed=0`` gives ``control_function``'s own default."""
    return control_function(f"ctl{seed}", 8, 4, num_terms=8, seed=7 + seed)


@dataclass
class Outcome:
    """One operation of a round: its input, its result or why it failed."""

    label: str
    network: object
    result: object = None
    error: Optional[str] = None


class Workload:
    """Base: subclasses give the inputs, the set-up and one timed round."""

    name = ""
    #: label -> why that design is in the workload
    designs: Dict[str, str] = {}

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.checker = evaluator.Checker()
        self.inputs: List[Tuple[str, object]] = []

    def make_inputs(self) -> None:
        seeded = {"ctl": self.seed, "ctl0": 0}
        self.inputs = [(label, seeded_controller(seeded[label])
                        if label in seeded else get_benchmark(label))
                       for label in self.designs]

    def setup(self) -> None:
        """The workload's own set-up, after the inputs exist."""

    def before_round(self) -> None:
        """Untimed preparation of the next round."""

    def round(self) -> List[Outcome]:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> Optional[str]:
        """Why *outcome* is wrong, or ``None``."""
        if outcome.error is not None:
            return outcome.error
        if outcome.result is None:
            return "no result network"
        return self.checker.mismatch(outcome.network, outcome.result)


class _FlowWorkload(Workload):
    config = FlowConfig(iterations=1)

    def round(self) -> List[Outcome]:
        outcomes = []
        for label, network in self.inputs:
            outcome = Outcome(label, network)
            try:
                outcome.result, _stats = sbm_flow(network, self.config)
            except Exception as exc:  # a failed operation, not a failed run
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcomes.append(outcome)
        return outcomes


class Control(_FlowWorkload):
    """The default optimize path at jobs=1: the SBM engines do the work;
    SAT, the cache and the pool are idle."""

    name = "control"
    designs = {
        "router": "gradient and BDD heavy; the smallest registry design",
        "arbiter": "kernel extraction on a double priority chain",
        "priority": "kernel extraction dominates (the SOP layer)",
        "ctl": "the seeded controller: varies the input per seed",
    }


class Verified(_FlowWorkload):
    """``verify_each_step``: the stage guard's 256-pattern simulation, then
    SAT CEC, after every stage.  SAT and BDD operations lead here."""

    name = "verified"
    designs = {
        "sqrt": "16-bit registry sqrt: SAT CEC ~40 % of the flow at this "
                "width (0.1 % at 12 bits)",
        "ctl": "the seeded controller under the same guard",
    }
    config = FlowConfig(iterations=1, verify_each_step=True)


class _CampaignWorkload(Workload):
    designs = {
        "router": "short job; also run twice to exercise dedup",
        "arbiter": "mid-size control job",
        "adder": "the longest job, arithmetic with many partition windows",
        "ctl": "the seeded controller",
        "ctl0": "the unseeded controller, run through orchestrate K=2: its "
                "four candidate flows would multiply a seeded design's "
                "spread by four",
    }

    def jobs(self) -> List[CampaignJob]:
        """The suite: one job per design, a duplicate of router, and the
        search job."""
        plain = FlowConfig(iterations=1)
        # threads=1 evaluates the two candidates one after the other, so
        # the stage-memo hits (and every count under them) do not depend
        # on thread timing; threads is execution-side, not in the key.
        search = FlowConfig(iterations=1, orchestrate=OrchestrateConfig(
            k=2, threads=1))
        jobs = [CampaignJob(label, label, search if label == "ctl0" else plain,
                            network=network)
                for label, network in self.inputs]
        jobs.insert(3, CampaignJob("router-again", "router", plain,
                                   network=jobs[0].network))
        return jobs

    def run(self, cache_dir: str, workers: int,
            accepted: Tuple[str, ...]) -> List[Outcome]:
        """One ``run_campaign``; a job whose cache outcome is not in
        *accepted* failed."""
        jobs = self.jobs()
        report = run_campaign(jobs, cache_dir=cache_dir, workers=workers,
                              threads=CAMPAIGN_THREADS)
        outcomes = []
        for job, row in zip(jobs, report.results):
            outcome = Outcome(job.name, job.network, row.network)
            if row.outcome == "error":
                outcome.error = row.error
            elif row.outcome not in accepted:
                outcome.error = f"cache outcome {row.outcome}"
            outcomes.append(outcome)
        return outcomes


def reap_pool_workers(timeout_s: float = 60.0) -> None:
    """Wait until every pool worker process has exited and been reaped.

    ``SharedProcessPool.shutdown`` returns before its workers are reaped;
    until they are, ``RUSAGE_CHILDREN`` misses their CPU time.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.005)


class Campaign(_CampaignWorkload):
    """``run_campaign`` from a fresh cache with a two-worker pool: the only
    user of the shared pool, of cache writes and of orchestrate."""

    name = "campaign"

    def before_round(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cold-", dir=self.scratch)

    def round(self) -> List[Outcome]:
        outcomes = self.run(self.cache_dir, CAMPAIGN_WORKERS, COLD)
        reap_pool_workers()
        return outcomes


class Replay(_CampaignWorkload):
    """Set-up fills a cache with the campaign suite; every round replays it
    at jobs=1.  All hits: the cache read path, where no engine runs."""

    name = "replay"

    def setup(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.scratch)
        cold = self.run(self.cache_dir, CAMPAIGN_WORKERS, COLD)
        reap_pool_workers()
        for outcome in cold:
            problem = Workload.verify(self, outcome)
            if problem is not None:
                raise RuntimeError(f"cold {outcome.label}: {problem}")
        self.cold = {outcome.label: evaluator.structure(outcome.result)
                     for outcome in cold}

    def round(self) -> List[Outcome]:
        return self.run(self.cache_dir, 1, WARM)

    def verify(self, outcome: Outcome) -> Optional[str]:
        problem = super().verify(outcome)
        if problem is None and \
                evaluator.structure(outcome.result) != self.cold[outcome.label]:
            problem = "replayed network differs from the cold run"
        return problem


WORKLOADS = {cls.name: cls for cls in (Control, Verified, Campaign, Replay)}
