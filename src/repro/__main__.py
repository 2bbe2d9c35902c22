"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``fig1``                 reproduce the Figure 1 demonstration
``table1 [names...]``    reproduce Table I (LUT-6 area) on the given or
                         default benchmarks
``table2 [names...]``    reproduce Table II (smallest AIGs)
``table3 [count]``       reproduce Table III on *count* industrial designs
``runtime``              the Section III-B monolithic runtime claim
``ablation``             parameter ablations (Sections III-C, IV-A, IV-B)
``optimize <file.aag>``  run the SBM flow on an ASCII AIGER file;
                         ``--cache-dir DIR`` memoizes every stage, so
                         rerunning an interrupted ``optimize`` with the
                         same ``--cache-dir`` resumes it: committed stages
                         replay, the rest recompute, and the result is the
                         uninterrupted run's network
``bench <name>``         print a benchmark's statistics
``campaign <suite.toml | names...>``
                         run a batch of (benchmark × config) jobs through
                         one shared worker pool and the persistent result
                         cache (``repro.campaign``); ``--cache-dir DIR``
                         selects the cache, ``--iterations N`` the flow
                         depth for ad-hoc benchmark lists, ``--tier NAMES``
                         additionally includes the suite's jobs marked
                         with those (comma-separated) tiers (e.g.
                         ``--tier nightly-large,nightly-scaled``);
                         ``--shard i/N`` runs only this worker's slice of
                         the deterministic N-way shard plan
                         (``repro.campaign.shard``), ``--shard-costs DB``
                         balances the plan by median cold runtimes from a
                         telemetry history store instead of the default
                         stable-hash split
``cache pack <dir> <archive>``
                         export a result-cache directory to a
                         byte-reproducible ``.tar.gz`` with a manifest of
                         keys and digests (``repro.campaign.sync``);
                         ``--report FILE`` embeds the producing campaign
                         report's per-slot cache counters so a degraded
                         shard (``store_failures``) is visible at merge
``cache merge <archive>... --into <dir>``
                         import cache archives into one combined cache:
                         idempotent for identical payloads, hard error
                         (exit 1) when the same key carries a different
                         result payload, corrupt entries skipped and
                         counted
``fuzz run [suite.toml]``
                         differential workload fuzzing (``repro.fuzz``):
                         seeded random networks through the flow, each
                         cross-examined by the oracle stack (SAT CEC,
                         jobs bit-identity, crash capture, chaos
                         sweeps).  ``--budget N`` cases, ``--seed S``
                         the recipe stream, ``--tier NAME`` picks the
                         suite tier, ``--bundle-dir DIR`` collects
                         failure repro bundles, ``--corpus-dir DIR`` the
                         persistent novelty corpus; exits 1 on any
                         oracle verdict
``fuzz repro <bundle>``  replay a failure bundle from the file alone and
                         compare against its recorded verdict
                         (``--original`` replays the unminimized
                         network); exits 0 only when the exact verdict
                         reproduces
``orchestrate <names...>``
                         DAG-aware pass-ordering search
                         (``repro.orchestrate``): rounds of K candidate
                         stage sequences with content-addressed per-stage
                         memoization.  ``--k K`` candidates per round,
                         ``--rounds R`` rounds, ``--seed S`` the bandit
                         seed; ``--cache-dir DIR`` backs the stage memo
                         with the persistent campaign cache so repeat
                         searches recompute nothing

Options
-------
``--jobs N`` / ``-j N``  worker processes for the partition-based engines
                         (default 1 = serial; 0 = all cores).  Results are
                         identical for every value — see ``repro.parallel``.
``--trace``              enable the hierarchical tracer and print the span
                         table + metrics after the command (``repro.obs``)
``--trace-jsonl PATH``   stream every span to a JSONL event sink
``--report-json PATH``   write the machine-readable run report (stable
                         schema; validate with ``python -m repro.obs.report``)
``--progress``           live progress on stderr while the command runs: a
                         TTY-aware status line (plain lines in CI logs)
                         fed by the non-blocking event bus (``repro.obs.live``)
``--progress-jsonl PATH`` stream every progress event as one JSON line
                         (tail-able; machine-readable live channel)
``--history-db PATH``    (campaign) ingest the finished campaign report
                         into the telemetry history store
                         (``python -m repro.obs.history``)
``--timeout S``          flow wall-clock budget in seconds: stages degrade
                         to reduced effort when behind schedule and are
                         skipped once the budget is gone (``repro.guard``)
``--chaos SEED``         inject deterministic faults (worker crashes,
                         window timeouts, corrupt results, BDD limits)
                         drawn from SEED — the fault-injection harness
``--chaos-interrupt N``  kill the flow right after global stage N has
                         committed its result (exit status 3), a
                         deterministic stand-in for ``kill -9`` used by
                         the rerun-after-interrupt CI check; on its own it
                         injects no other fault and keeps the stage memo on
``--no-simresub``        disable the simulation-guided resubstitution
                         stage (the fifth engine; on by default)
``--orchestrate K``      (optimize / campaign) replace the fixed stage
                         waterfall with the pass-ordering search, K
                         candidate orderings per round
                         (``repro.orchestrate``)

``optimize`` also accepts a benchmark name from the registry, e.g.
``python -m repro optimize router --trace --report-json out.json``.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple


def _parse_jobs_value(flag: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SystemExit(f"{flag} expects an integer, got {value!r}") from None


def _extract_jobs(args: List[str]) -> Tuple[List[str], int]:
    """Strip ``-j/--jobs N`` (or ``--jobs=N``) from *args*; default 1."""
    jobs = 1
    out: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("-j", "--jobs"):
            if i + 1 >= len(args):
                raise SystemExit(f"{arg} requires a value")
            jobs = _parse_jobs_value(arg, args[i + 1])
            i += 2
            continue
        if arg.startswith("--jobs="):
            jobs = _parse_jobs_value("--jobs", arg.split("=", 1)[1])
            i += 1
            continue
        out.append(arg)
        i += 1
    return out, jobs


def _extract_value_flag(args: List[str], flag: str) -> Tuple[List[str], Optional[str]]:
    """Strip ``flag PATH`` (or ``flag=PATH``) from *args*."""
    value: Optional[str] = None
    out: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == flag:
            if i + 1 >= len(args):
                raise SystemExit(f"{flag} requires a value")
            value = args[i + 1]
            i += 2
            continue
        if arg.startswith(flag + "="):
            value = arg.split("=", 1)[1]
            i += 1
            continue
        out.append(arg)
        i += 1
    return out, value


def _extract_obs(args: List[str]) -> Tuple[List[str], bool, Optional[str],
                                           Optional[str]]:
    """Strip the observability flags; returns (args, trace, jsonl, report)."""
    args, jsonl = _extract_value_flag(args, "--trace-jsonl")
    args, report = _extract_value_flag(args, "--report-json")
    trace = "--trace" in args
    args = [a for a in args if a != "--trace"]
    return args, trace, jsonl, report


def _extract_guard(args: List[str]):
    """Strip the repro.guard flags; returns (args, GuardOptions)."""
    args, timeout = _extract_value_flag(args, "--timeout")
    args, chaos_interrupt = _extract_value_flag(args, "--chaos-interrupt")
    args, chaos = _extract_value_flag(args, "--chaos")
    timeout_s: Optional[float] = None
    if timeout is not None:
        try:
            timeout_s = float(timeout)
        except ValueError:
            raise SystemExit(
                f"--timeout expects seconds, got {timeout!r}") from None
        if timeout_s <= 0:
            raise SystemExit("--timeout must be positive")
    chaos_seed: Optional[int] = None
    if chaos is not None:
        try:
            chaos_seed = int(chaos)
        except ValueError:
            raise SystemExit(
                f"--chaos expects an integer seed, got {chaos!r}") from None
    interrupt_after: Optional[int] = None
    if chaos_interrupt is not None:
        try:
            interrupt_after = int(chaos_interrupt)
        except ValueError:
            raise SystemExit(f"--chaos-interrupt expects a stage index, "
                             f"got {chaos_interrupt!r}") from None
    return args, GuardOptions(timeout_s=timeout_s, chaos_seed=chaos_seed,
                              interrupt_after=interrupt_after)


class GuardOptions:
    """Parsed ``repro.guard`` CLI flags."""

    def __init__(self, timeout_s: Optional[float] = None,
                 chaos_seed: Optional[int] = None,
                 interrupt_after: Optional[int] = None) -> None:
        self.timeout_s = timeout_s
        self.chaos_seed = chaos_seed
        self.interrupt_after = interrupt_after
        self.cache_dir: Optional[str] = None
        self.iterations: Optional[int] = None
        self.tier: Optional[str] = None
        #: ``--shard i/N``: run only this slice of the shard plan
        self.shard: Optional[str] = None
        #: ``--shard-costs DB``: history store seeding the cost balancer
        self.shard_costs: Optional[str] = None
        self.simresub: bool = True
        self.history_db: Optional[str] = None
        #: ``--orchestrate K``: run the pass-ordering search with K
        #: candidates per round instead of the fixed waterfall
        self.orchestrate_k: Optional[int] = None


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    args, jobs = _extract_jobs(args)
    args, trace, trace_jsonl, report_json = _extract_obs(args)
    args, guard_opts = _extract_guard(args)
    args, cache_dir = _extract_value_flag(args, "--cache-dir")
    args, iterations = _extract_value_flag(args, "--iterations")
    args, tier = _extract_value_flag(args, "--tier")
    args, shard = _extract_value_flag(args, "--shard")
    args, shard_costs = _extract_value_flag(args, "--shard-costs")
    args, progress_jsonl = _extract_value_flag(args, "--progress-jsonl")
    args, history_db = _extract_value_flag(args, "--history-db")
    args, orchestrate_k = _extract_value_flag(args, "--orchestrate")
    progress = "--progress" in args
    args = [a for a in args if a != "--progress"]
    guard_opts.cache_dir = cache_dir
    guard_opts.iterations = int(iterations) if iterations is not None else None
    guard_opts.tier = tier
    guard_opts.shard = shard
    guard_opts.shard_costs = shard_costs
    guard_opts.history_db = history_db
    guard_opts.simresub = "--no-simresub" not in args
    args = [a for a in args if a != "--no-simresub"]
    if orchestrate_k is not None:
        try:
            guard_opts.orchestrate_k = int(orchestrate_k)
        except ValueError:
            raise SystemExit(f"--orchestrate expects an integer K, "
                             f"got {orchestrate_k!r}") from None
        if guard_opts.orchestrate_k < 1:
            raise SystemExit("--orchestrate K must be >= 1")
    if not args:
        print(__doc__)
        return 1
    command, rest = args[0], args[1:]
    observe = trace or trace_jsonl is not None or report_json is not None
    if not observe:
        if progress or progress_jsonl is not None:
            from repro.obs.live import live_session
            with live_session(progress=progress, jsonl_path=progress_jsonl):
                return _dispatch(command, rest, jobs, guard_opts)
        return _dispatch(command, rest, jobs, guard_opts)
    from repro import obs
    from repro.obs.live import live_session
    from repro.obs.report import build_report, write_report
    session = obs.enable(jsonl_path=trace_jsonl)
    try:
        with live_session(progress=progress, jsonl_path=progress_jsonl):
            status = _dispatch(command, rest, jobs, guard_opts)
    finally:
        obs.disable()
    if trace:
        from repro.obs.report import format_metrics_table, format_trace_table
        print()
        print(format_trace_table([s.to_dict() for s in session.tracer.roots]))
        print(format_metrics_table(session.metrics.to_dict()))
    if report_json is not None:
        report = build_report(session,
                              command=" ".join([command] + list(rest)))
        write_report(report_json, report)
        print(f"run report written to {report_json}")
    return status


def _guard_summary(stats) -> str:
    """One-line ``repro.guard`` summary for a finished flow, or ''."""
    guard = getattr(stats, "guard", None)
    if guard is None:
        return ""
    parts = []
    if guard.degradations:
        parts.append(f"degraded={guard.degradations}")
    if guard.skips:
        parts.append(f"skipped={guard.skips}")
    if guard.rollbacks:
        parts.append(f"rollbacks={guard.rollbacks}")
    if guard.checkpoints:
        parts.append(f"checkpoints={guard.checkpoints}")
    if guard.replayed:
        parts.append(f"replayed={guard.replayed}")
    if guard.faults:
        parts.append(f"faults={len(guard.faults)}")
    return f"guard : {' '.join(parts)}" if parts else ""


def _dispatch(command: str, rest: List[str], jobs: int,
              guard_opts: Optional[GuardOptions] = None) -> int:
    from repro.sbm.config import FlowConfig
    guard_opts = guard_opts or GuardOptions()
    chaos_plan = None
    if guard_opts.chaos_seed is not None:
        from repro.guard.chaos import FaultPlan
        chaos_plan = FaultPlan(seed=guard_opts.chaos_seed,
                               interrupt_after=guard_opts.interrupt_after)
    elif guard_opts.interrupt_after is not None:
        from repro.guard.chaos import FaultPlan
        chaos_plan = FaultPlan(seed=0, rate=0.0,
                               interrupt_after=guard_opts.interrupt_after)
    orchestrate_cfg = None
    if guard_opts.orchestrate_k is not None:
        from repro.sbm.config import OrchestrateConfig
        orchestrate_cfg = OrchestrateConfig(k=guard_opts.orchestrate_k)
    flow_config = FlowConfig(iterations=1, jobs=jobs,
                             flow_timeout_s=guard_opts.timeout_s,
                             chaos=chaos_plan,
                             enable_simresub=guard_opts.simresub,
                             verify_each_step=chaos_plan is not None,
                             orchestrate=orchestrate_cfg)
    if command == "fig1":
        from repro.experiments.fig1 import format_result, run_fig1
        print(format_result(run_fig1()))
    elif command == "table1":
        from repro.experiments.table1 import format_results, run_table1
        print(format_results(run_table1(benchmarks=rest or None,
                                        flow_config=flow_config)))
    elif command == "table2":
        from repro.experiments.table2 import format_results, run_table2
        print(format_results(run_table2(benchmarks=rest or None,
                                        flow_config=flow_config)))
    elif command == "table3":
        from repro.experiments.table3 import format_summary, run_table3
        count = int(rest[0]) if rest else 6
        print(format_summary(run_table3(num_designs=count,
                                        sbm_config=flow_config)))
    elif command == "runtime":
        from repro.experiments.runtime import format_results, run_monolithic
        print(format_results(run_monolithic()))
    elif command == "ablation":
        from repro.experiments import ablation
        ablation.main()
    elif command == "optimize":
        if not rest:
            raise SystemExit("optimize requires an .aag file or a benchmark "
                             "name")
        import os
        from repro.aig.io_aiger import read_aag, write_aag
        from repro.bench.registry import benchmark_names, get_benchmark
        from repro.campaign.cache import cache_context
        from repro.sat.equivalence import check_equivalence
        from repro.sbm.flow import sbm_flow
        if not os.path.exists(rest[0]) and rest[0] in benchmark_names():
            aig = get_benchmark(rest[0], scaled=True)
        else:
            aig = read_aag(rest[0])
        print(f"input : {aig.stats()}")
        from repro.errors import EquivalenceError
        from repro.guard.chaos import ChaosInterrupt
        try:
            with cache_context(guard_opts.cache_dir):
                optimized, stats = sbm_flow(aig, flow_config)
        except EquivalenceError as exc:
            print(f"EQUIVALENCE FAILURE: {exc}")
            if exc.cex is not None:
                bits = "".join("1" if b else "0" for b in exc.cex)
                print(f"counterexample: PO {exc.po_name or exc.po_index} "
                      f"differs under PI assignment {bits}")
            return 1
        except ChaosInterrupt as exc:
            print(f"chaos: interrupted after stage #{exc.stage_index}; "
                  f"rerun with the same --cache-dir to resume")
            return 3
        ok, cex = check_equivalence(aig, optimized)
        print(f"output: {optimized.stats()}  verified={ok}  "
              f"({stats.runtime_s:.1f}s)")
        if not ok and cex is not None:
            bits = "".join("1" if b else "0" for b in cex)
            print(f"counterexample: PI assignment {bits}")
        summary = _guard_summary(stats)
        if summary:
            print(summary)
        if len(rest) > 1:
            write_aag(optimized, rest[1])
            print(f"written to {rest[1]}")
        if not ok:
            return 1
    elif command == "campaign":
        return _run_campaign_command(rest, jobs, guard_opts, chaos_plan)
    elif command == "cache":
        return _run_cache_command(rest)
    elif command == "fuzz":
        return _run_fuzz_command(rest, guard_opts)
    elif command == "orchestrate":
        return _run_orchestrate_command(rest, flow_config, guard_opts)
    elif command == "bench":
        from repro.bench.registry import benchmark_names, get_benchmark
        names = rest or benchmark_names()
        for name in names:
            aig = get_benchmark(name, scaled=True)
            print(f"{name:12s} {aig.stats()}")
    else:
        print(__doc__)
        return 1
    return 0


def _run_campaign_command(rest: List[str], jobs: int,
                          guard_opts: GuardOptions, chaos_plan) -> int:
    """``python -m repro campaign <suite.toml | benchmark names...>``."""
    import dataclasses
    import os
    from repro.campaign import jobs_from_benchmarks, load_suite, run_campaign
    from repro.sbm.config import FlowConfig
    if not rest:
        raise SystemExit("campaign requires a suite.toml or benchmark names")
    if len(rest) == 1 and os.path.exists(rest[0]):
        tiers = ([t for t in guard_opts.tier.split(",") if t]
                 if guard_opts.tier else None)
        suite, campaign_jobs = load_suite(rest[0], tiers=tiers)
    else:
        config = FlowConfig(iterations=guard_opts.iterations or 1,
                            enable_simresub=guard_opts.simresub)
        suite = "adhoc"
        campaign_jobs = jobs_from_benchmarks(rest, config=config)
    if not guard_opts.simresub:
        campaign_jobs = [
            dataclasses.replace(job, config=dataclasses.replace(
                job.config, enable_simresub=False))
            for job in campaign_jobs]
    if guard_opts.orchestrate_k is not None:
        from repro.sbm.config import OrchestrateConfig
        campaign_jobs = [
            dataclasses.replace(job, config=dataclasses.replace(
                job.config,
                orchestrate=OrchestrateConfig(k=guard_opts.orchestrate_k)))
            for job in campaign_jobs]
    if chaos_plan is not None:
        # Chaos makes every job uncacheable (time/fault-dependent results);
        # verification keeps corrupt-result faults from reaching the output.
        campaign_jobs = [
            dataclasses.replace(job, config=dataclasses.replace(
                job.config, chaos=chaos_plan, verify_each_step=True))
            for job in campaign_jobs]
    shard_tag = None
    if guard_opts.shard is not None:
        # Planned AFTER every config transform above: shard tokens hash
        # the final job configs, so every worker of the fleet — given
        # the same suite and flags — derives the same disjoint plan.
        from repro.campaign.shard import (ShardSpec, plan_shards,
                                          shard_costs_from_history)
        try:
            spec = ShardSpec.parse(guard_opts.shard)
        except ValueError as exc:
            raise SystemExit(f"--shard: {exc}") from None
        costs = (shard_costs_from_history(guard_opts.shard_costs)
                 if guard_opts.shard_costs is not None else None)
        plan = plan_shards(campaign_jobs, spec.count, costs=costs)
        selected = plan.select(campaign_jobs, spec.index)
        shard_tag = plan.tag(spec.index)
        print(f"shard {spec.label} ({plan.planner} plan): "
              f"{len(selected)} of {len(campaign_jobs)} jobs")
        campaign_jobs = selected
    elif guard_opts.shard_costs is not None:
        raise SystemExit("--shard-costs requires --shard i/N")
    report = run_campaign(campaign_jobs, cache_dir=guard_opts.cache_dir,
                          workers=jobs, suite=suite,
                          history_db=guard_opts.history_db,
                          shard=shard_tag)
    for row in report.results:
        line = (f"{row.name:16s} {row.outcome:8s} "
                f"{row.nodes_before:6d} -> {row.nodes_after:6d}  "
                f"{row.wall_s:7.2f}s")
        if row.error:
            line += f"  {row.error}"
        print(line)
    print(f"campaign '{report.suite}': {report.jobs} jobs  "
          f"hits={report.hits} misses={report.misses} "
          f"dedup={report.deduped} uncached={report.uncached} "
          f"errors={report.errors}")
    print(f"  elapsed={report.elapsed_s:.2f}s  "
          f"stolen_windows={report.stolen_windows}  "
          f"pool_rebuilds={report.pool_rebuilds}  "
          f"corrupt_entries={report.corrupt_entries}")
    return 1 if report.errors else 0


def _run_cache_command(rest: List[str]) -> int:
    """``python -m repro cache pack|merge ...`` (``repro.campaign.sync``)."""
    import json
    import os
    import tarfile
    if not rest:
        raise SystemExit("cache requires a subcommand: pack | merge")
    sub, rest = rest[0], rest[1:]
    if sub == "pack":
        from repro.campaign.sync import pack_cache
        rest, report_path = _extract_value_flag(rest, "--report")
        if len(rest) != 2:
            raise SystemExit("cache pack requires: CACHE_DIR ARCHIVE "
                             "[--report campaign_report.json]")
        cache_dir, archive = rest
        if not os.path.isdir(cache_dir):
            print(f"cache pack: {cache_dir} is not a directory")
            return 2
        slot_stats = None
        if report_path is not None:
            try:
                with open(report_path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
            except (OSError, ValueError) as exc:
                print(f"cache pack: unreadable report {report_path}: {exc}")
                return 2
            campaigns = doc.get("campaign") or []
            slot_stats = campaigns[0].get("cache_slots") if campaigns else None
        manifest = pack_cache(cache_dir, archive, slot_stats=slot_stats)
        slots = {"flow": 0, "stage": 0}
        for entry in manifest["entries"]:
            slots[entry["slot"]] = slots.get(entry["slot"], 0) + 1
        line = (f"packed {len(manifest['entries'])} entr(ies) "
                f"(flow={slots['flow']} stage={slots['stage']}) "
                f"from {cache_dir} into {archive}")
        if manifest["corrupt_skipped"]:
            line += f"  [skipped {manifest['corrupt_skipped']} corrupt]"
        print(line)
        failures = sum(int(stats.get("store_failures", 0))
                       for stats in (slot_stats or {}).values()
                       if isinstance(stats, dict))
        if failures:
            print(f"  WARNING: the producing run recorded {failures} cache "
                  f"store failure(s) — this archive is missing results "
                  f"that were computed but never committed")
        return 0
    if sub == "merge":
        from repro.campaign.sync import CacheMergeConflict, merge_cache
        rest, into = _extract_value_flag(rest, "--into")
        if into is None or not rest:
            raise SystemExit("cache merge requires: ARCHIVE... --into DIR")
        try:
            report = merge_cache(rest, into)
        except CacheMergeConflict as exc:
            print(f"MERGE CONFLICT: {exc}")
            return 1
        except (OSError, ValueError, tarfile.TarError) as exc:
            print(f"cache merge: {type(exc).__name__}: {exc}")
            return 2
        print(report.describe())
        return 0
    raise SystemExit(f"unknown cache subcommand {sub!r} (expected pack | "
                     f"merge)")


def _run_orchestrate_command(rest: List[str], flow_config,
                             guard_opts: GuardOptions) -> int:
    """``python -m repro orchestrate <benchmark | file.aag> ...``."""
    import dataclasses
    import os
    from repro.campaign.cache import cache_context
    from repro.sat.equivalence import check_equivalence
    from repro.sbm.config import OrchestrateConfig
    from repro.sbm.flow import sbm_flow
    rest, k = _extract_value_flag(rest, "--k")
    rest, rounds = _extract_value_flag(rest, "--rounds")
    rest, seed = _extract_value_flag(rest, "--seed")
    if not rest:
        raise SystemExit("orchestrate requires a benchmark name or an "
                         ".aag file")
    base = flow_config.orchestrate or OrchestrateConfig()
    try:
        overrides = {}
        if k is not None:
            overrides["k"] = int(k)
        if rounds is not None:
            overrides["rounds"] = int(rounds)
        if seed is not None:
            overrides["seed"] = int(seed)
    except ValueError as exc:
        raise SystemExit(f"orchestrate: {exc}") from None
    ocfg = dataclasses.replace(base, **overrides)
    if ocfg.k < 1 or ocfg.rounds < 1:
        raise SystemExit("orchestrate: --k and --rounds must be >= 1")
    config = dataclasses.replace(flow_config, orchestrate=ocfg)
    from repro.aig.io_aiger import read_aag
    from repro.bench.registry import benchmark_names, get_benchmark
    status = 0
    with cache_context(guard_opts.cache_dir):
        for name in rest:
            if not os.path.exists(name) and name in benchmark_names():
                aig = get_benchmark(name, scaled=True)
            else:
                aig = read_aag(name)
            print(f"{aig.name or name}: {aig.stats()}")
            optimized, stats = sbm_flow(aig, config)
            doc = stats.orchestrate or {}
            for round_doc in doc.get("rounds", []):
                ordering = ">".join(round_doc["ordering"])
                print(f"  round {round_doc['round'] + 1}: "
                      f"winner #{round_doc['winner']}  "
                      f"{round_doc['nodes']} nodes  {ordering}")
            memo = doc.get("stage_memo")
            if memo is not None:
                print(f"  stage memo: {memo['memory_hits']} memory hits, "
                      f"{memo['disk_hits']} disk hits, "
                      f"{memo['misses']} recomputes, "
                      f"{memo['stores']} stores")
            ok, _cex = check_equivalence(aig, optimized)
            print(f"  result: {aig.num_ands} -> {optimized.num_ands} nodes  "
                  f"verified={ok}  ({stats.runtime_s:.1f}s)")
            if not ok:
                status = 1
    return status


def _run_fuzz_command(rest: List[str], guard_opts: GuardOptions) -> int:
    """``python -m repro fuzz run|repro ...`` (see ``repro.fuzz``)."""
    import dataclasses
    import os
    if not rest:
        raise SystemExit("fuzz requires a subcommand: run | repro")
    sub, rest = rest[0], rest[1:]
    if sub == "run":
        from repro.fuzz import FuzzConfig, load_fuzz_suite, run_fuzz
        rest, budget = _extract_value_flag(rest, "--budget")
        rest, seed = _extract_value_flag(rest, "--seed")
        rest, bundle_dir = _extract_value_flag(rest, "--bundle-dir")
        rest, corpus_dir = _extract_value_flag(rest, "--corpus-dir")
        rest, stop_after = _extract_value_flag(rest, "--stop-after")
        if rest and os.path.exists(rest[0]):
            config = load_fuzz_suite(rest[0], tier=guard_opts.tier)
        else:
            config = FuzzConfig()
        overrides = {}
        try:
            if budget is not None:
                overrides["budget"] = int(budget)
            if seed is not None:
                overrides["seed"] = int(seed)
            if stop_after is not None:
                overrides["stop_after_failures"] = int(stop_after)
        except ValueError as exc:
            raise SystemExit(f"fuzz run: {exc}") from None
        if bundle_dir is not None:
            overrides["bundle_dir"] = bundle_dir
        if corpus_dir is not None:
            overrides["corpus_dir"] = corpus_dir
        if overrides:
            config = dataclasses.replace(config, **overrides)
        report = run_fuzz(config, history_db=guard_opts.history_db)
        for row in report.cases:
            primary = row.verdict.primary
            if primary is None:
                continue
            line = (f"{row.name}  {primary.check}: {primary.kind}"
                    f"  [{row.fingerprint}]")
            if row.bundle_path:
                line += f"  -> {row.bundle_path}"
            print(line)
        print(f"fuzz '{report.name}': {report.executed} cases "
              f"(seed={report.seed})  failures={report.failures} "
              f"unique={report.unique_failures}")
        print(f"  corpus: replayed={report.corpus_replayed} "
              f"added={report.corpus_added}  "
              f"elapsed={report.elapsed_s:.2f}s")
        return 1 if report.failures else 0
    if sub == "repro":
        from repro.fuzz import load_bundle, replay_bundle
        original = "--original" in rest
        rest = [a for a in rest if a != "--original"]
        if not rest:
            raise SystemExit("fuzz repro requires a bundle path")
        try:
            bundle = load_bundle(rest[0])
        except (OSError, ValueError, KeyError) as exc:
            print(f"unreadable bundle {rest[0]}: {exc}")
            return 2
        result = replay_bundle(bundle, minimized=not original)
        expected = result.expected
        actual = result.verdict.primary
        print(f"bundle   : {bundle.fingerprint}  "
              f"(generator {bundle.recipe.get('generator')}, "
              f"seed {bundle.recipe.get('seed')})")
        if bundle.injected:
            print(f"injected : {bundle.injected}  (test-only fault hook)")
        print(f"expected : {expected.check}: {expected.kind}"
              f" @ {expected.stage}" if expected is not None
              else "expected : <none>")
        print(f"actual   : {actual.check}: {actual.kind} @ {actual.stage}"
              if actual is not None else "actual   : no failure")
        status = "REPRODUCED" if result.reproduced else "NOT REPRODUCED"
        print(f"verdict  : {status}")
        return 0 if result.reproduced else 1
    raise SystemExit(f"unknown fuzz subcommand {sub!r} (expected run | "
                     f"repro)")


if __name__ == "__main__":
    raise SystemExit(main())
