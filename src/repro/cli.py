"""Command-line interface.

Usage (``python -m repro.cli <command> ...``)::

    apps                         list the bundled applications
    run APP [options]            run one application and report races
    report [--write PATH]        regenerate every table and figure
    attribute APP [options]      two-run §6.1 racy-access attribution
    table2                       static instrumentation statistics
    disasm APP [--instrumented] [--lowered]
                                 mini-ISA listing of an app kernel binary,
                                 or the block code it is lowered to
    fleet serve|submit|status|drain
                                 supervised multi-run detection service

Exit codes (see :mod:`repro.exitcodes`): 0 clean, 1 races found,
2 configuration error, 3 runtime failure/degraded, 4 deadline exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps.base import measure
from repro.apps.registry import APPLICATIONS, EXTRAS, get_app


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_run_plan` reads."""
    p.add_argument("app", choices=sorted(APPLICATIONS) + sorted(EXTRAS))
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--protocol", choices=["sw", "mw"], default="sw")
    p.add_argument("--policy", choices=["round_robin", "random"],
                   default="round_robin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--first-races-only", action="store_true")
    p.add_argument("--paper-input", action="store_true",
                   help="use the paper's Table 1 input set (slow)")
    p.add_argument("--reference-detector", action="store_true",
                   help="run the paper's literal O(i²p²) detection "
                        "algorithm instead of the fast path (identical "
                        "output, slower wall-clock; see docs/performance.md)")
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="per-datagram drop probability of the simulated "
                        "network (default 0: reliable, byte-identical to "
                        "builds without the robustness layer)")
    p.add_argument("--duplicate-rate", type=float, default=0.0,
                   help="per-datagram duplication probability")
    p.add_argument("--reorder-rate", type=float, default=0.0,
                   help="per-datagram reordering (late delivery) probability")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the deterministic fault schedule; the "
                        "same seed reproduces the same drops on the same "
                        "datagrams (see docs/robustness.md)")
    p.add_argument("--retry-budget", type=int, default=8,
                   help="total transmission attempts per fragment before "
                        "the reliable channel gives up (default 8)")
    p.add_argument("--crash-rate", type=float, default=0.0,
                   help="per-event node-crash probability, evaluated at "
                        "shared accesses, message sends and barrier "
                        "arrivals (default 0: no crashes, byte-identical "
                        "to builds without the crash-tolerance layer)")
    p.add_argument("--crash-seed", type=int, default=0,
                   help="seed of the deterministic crash schedule; "
                        "independent of --seed and --fault-seed "
                        "(see docs/robustness.md)")
    p.add_argument("--crash-at", action="append", default=[],
                   metavar="PID:GEN",
                   help="crash process PID at its arrival to barrier "
                        "generation GEN (repeatable; targeting P0, the "
                        "initial master, requires --master-failover)")
    p.add_argument("--master-failover", action="store_true",
                   help="allow the barrier master (the coordinator running "
                        "the race detector) to crash: the surviving "
                        "processes elect the lowest live pid, replay the "
                        "journaled detector commits into it, and re-solicit "
                        "the in-flight epoch metadata; off (default), the "
                        "master is pinned to P0 and immune to crashes, "
                        "byte-identical to builds without the coordinator "
                        "subsystem")
    p.add_argument("--sharded-detection", action="store_true",
                   help="distribute each epoch's pair search across the "
                        "live processes: shard owners run the pruned "
                        "search for their interval-pair blocks on their "
                        "own clocks and the reports tree-reduce back to "
                        "the coordinator — byte-identical races, smaller "
                        "serialized detection share at the coordinator "
                        "(see docs/performance.md)")
    p.add_argument("--coarse-filter", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="two-level detection filter (default on): "
                        "piggy-back coarse granule digests on the notice "
                        "lists so the detection engine proves most "
                        "page-overlapping pairs race-free without the "
                        "bitmap-fetch round; race reports are "
                        "byte-identical either way — --no-coarse-filter "
                        "restores the paper's unfiltered pipeline "
                        "(see docs/performance.md)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="take barrier-consistent per-node checkpoints and "
                        "persist them under DIR; a crashed node then "
                        "recovers with its detection metadata intact, so "
                        "race reports match the crash-free run exactly")
    p.add_argument("--checkpoint-delta", action="store_true",
                   help="delta-encode each checkpoint against the node's "
                        "previous generation (implies checkpointing): only "
                        "changed pages/intervals are written, shrinking "
                        "checkpoint bytes and their priced write cost; "
                        "recovery is byte-identical to full snapshots")
    p.add_argument("--resume-from", default=None, metavar="DIR",
                   help="resume from a checkpoint directory written by a "
                        "previous --checkpoint-dir run with the same "
                        "configuration; reproduces the uninterrupted run's "
                        "race report byte-identically")
    p.add_argument("--mode", choices=["online", "record", "detect-offline"],
                   default="online",
                   help="two-phase pipeline: 'record' runs with detection "
                        "off and logs only the synchronization order "
                        "(lock grants, barrier arrivals, sync-message "
                        "deliveries) to --trace-file; 'detect-offline' "
                        "re-executes steered by that trace with the full "
                        "detector on, reproducing the monolithic 'online' "
                        "run's report byte-identically (see "
                        "docs/performance.md); refuses to compose with "
                        "--crash-rate/--crash-at/--resume-from")
    p.add_argument("--trace-file", default=None, metavar="PATH",
                   help="hash-framed synchronization-order trace written "
                        "by --mode record and consumed by --mode "
                        "detect-offline (required by both)")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget for the run; past it the "
                        "scheduler aborts cleanly with DeadlineExceeded "
                        "(exit code 4) instead of running away")


def _nprocs(args) -> int:
    """``queue_racy`` is Figure 5's three roles, whatever ``--procs``."""
    return 3 if args.app == "queue_racy" else args.procs


def _run_plan(args, **extra):
    """The one reading of :func:`_add_run_options`'s flags: the app, its
    parameter set (``--paper-input``) and the ``AppSpec.config`` / ``run``
    keyword arguments (plus ``extra``)."""
    from repro.sim.crash import parse_crash_at
    spec = get_app(args.app)
    params = spec.paper_params if args.paper_input else spec.default_params
    return spec, params, dict(
        nprocs=_nprocs(args),
        segment_words=spec.segment_words(params, _nprocs(args)),
        protocol=args.protocol,
        policy=args.policy,
        seed=args.seed,
        first_races_only=args.first_races_only,
        detector_fast_path=not args.reference_detector,
        loss_rate=args.loss_rate,
        master_failover=args.master_failover,
        duplicate_rate=args.duplicate_rate,
        reorder_rate=args.reorder_rate,
        fault_seed=args.fault_seed,
        retry_budget=args.retry_budget,
        crash_rate=args.crash_rate,
        crash_seed=args.crash_seed,
        crash_at=parse_crash_at(args.crash_at),
        sharded_detection=args.sharded_detection,
        coarse_filter=args.coarse_filter,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_delta=args.checkpoint_delta,
        resume_from=args.resume_from,
        mode=args.mode,
        trace_file=args.trace_file,
        deadline_seconds=args.deadline,
        **extra)


def cmd_apps(_args) -> int:
    for name, spec in {**APPLICATIONS, **EXTRAS}.items():
        print(f"{name:12s} sync={spec.synchronization:14s} "
              f"input={spec.input_description:20s} "
              f"races expected: {'yes' if spec.expect_races else 'no'}")
    return 0


def cmd_run(args) -> int:
    spec, params, overrides = _run_plan(args)
    nprocs = overrides["nprocs"]
    if args.resume_from or args.mode != "online":
        # A resumed run must match the original checkpointed run exactly,
        # so only the detection-on run is performed (measure()'s
        # uninstrumented baseline would diverge from the snapshots).
        # The two-phase modes are likewise single runs: record forces
        # detection off and logs the synchronization order; detect-offline
        # replays the trace with detection on.
        res = spec.run(params=params, **overrides)
        result = None
    else:
        result = measure(spec, params=params, **overrides)
        res = result.detected
    print(f"{args.app} on {nprocs} simulated processes "
          f"({args.protocol} protocol, {args.policy} seed {args.seed})")
    if result is not None:
        print(f"  runtime: {res.runtime_seconds * 1e3:.2f} virtual ms, "
              f"slowdown {result.slowdown:.2f}x")
    elif args.mode == "record":
        print(f"  runtime: {res.runtime_seconds * 1e3:.2f} virtual ms "
              f"(recording to {args.trace_file})")
    elif args.mode == "detect-offline":
        print(f"  runtime: {res.runtime_seconds * 1e3:.2f} virtual ms "
              f"(replaying {args.trace_file})")
    else:
        print(f"  runtime: {res.runtime_seconds * 1e3:.2f} virtual ms "
              f"(resumed from {args.resume_from})")
    print(f"  memory: {res.memory_kbytes:.1f} KB shared, "
          f"{res.barriers_completed} barriers, "
          f"{res.lock_acquires} lock acquires, "
          f"{res.intervals_per_barrier:.1f} intervals/barrier")
    st = res.detector_stats
    if st is not None:
        print(f"  detector: {st.interval_comparisons} comparisons, "
              f"{st.concurrent_pairs} concurrent pairs, "
              f"{st.bitmaps_fetched}/{st.bitmaps_created} bitmaps fetched")
        if res.config.coarse_filter:
            print(f"  filter: {st.pairs_filtered}/{st.granule_checks} "
                  f"combination(s) proven race-free by digest, "
                  f"{st.granule_hits} granule hit(s) fetched, "
                  f"{res.traffic.digest_bytes} digest bytes carried")
    rs = res.record_stats
    if rs is not None and args.mode == "record":
        print(f"  record: {rs['entries_recorded']} sync entries "
              f"({rs['lock_grants']} lock grants, "
              f"{rs['barrier_arrivals']} barrier arrivals, "
              f"{rs['deliveries']} message deliveries), "
              f"{rs['trace_bytes']} trace bytes")
    elif rs is not None:
        print(f"  replay: {rs['grants_replayed']} lock grants steered, "
              f"{rs['arrivals_verified']} barrier arrivals and "
              f"{rs['deliveries_verified']} deliveries verified "
              f"against the trace")
    if res.config.faults_enabled:
        fs = res.traffic.fault_summary()
        print(f"  network: {fs['drops']} drops, {fs['retransmits']} "
              f"retransmits, {fs['duplicates']} duplicates suppressed, "
              f"{fs['reorders']} reorders, {fs['retry_failures']} "
              f"retry failures")
        if st is not None and st.page_granularity_reports:
            print(f"  degradation: {st.page_granularity_reports} "
                  f"page-granularity report(s) after "
                  f"{st.bitmap_rounds_failed} failed bitmap round(s)")
    cs = res.crash_stats
    if res.config.crashes_enabled:
        print(f"  crashes: {cs.crashes} injected "
              f"({cs.deaths_declared} declared dead by the master), "
              f"{cs.recoveries_from_checkpoint} checkpoint recoveries, "
              f"{cs.recoveries_without_checkpoint} restart recoveries, "
              f"{cs.intervals_lost} interval(s) lost")
    if res.config.checkpointing_enabled:
        print(f"  checkpoints: {cs.checkpoints_written} written, "
              f"{cs.checkpoint_bytes} bytes"
              + (f" -> {res.config.checkpoint_dir}"
                 if res.config.checkpoint_dir else ""))
    if res.config.sharded_detection:
        sh = res.sharding_stats
        print(f"  sharding: {sh.epochs_sharded}/"
              f"{sh.epochs_sharded + sh.epochs_centralized} epoch(s) "
              f"sharded, {sh.shards_dispatched} shard(s), "
              f"{sh.records_shipped} record(s) shipped, "
              f"{sh.bytes_scattered + sh.bytes_reduced} "
              f"scatter/reduce bytes, "
              f"{sh.bitmap_fetch_messages} bitmap fetch(es) "
              f"({sh.bitmap_fetch_bytes} bytes), "
              f"{sh.fallbacks_owner_crash + sh.fallbacks_network} "
              f"fallback(s)")
    if res.config.master_failover:
        fo = res.failover_stats
        print(f"  failover: {fo.elections_held} election(s), "
              f"{fo.state_bytes_migrated} state bytes migrated, "
              f"{fo.records_resolicited} record(s) re-solicited, "
              f"{fo.state_checkpoints} journal write(s) "
              f"({fo.state_checkpoint_bytes} bytes)")
    if res.unverifiable and st is not None:
        print(f"\n{len(res.unverifiable)} unverifiable concurrent "
              f"pair entr(ies) — crash-lost metadata "
              f"({st.unverifiable_pairs} distinct pair(s)):")
        for entry in res.unverifiable:
            print(f"  {entry}")
    if res.races:
        print(f"\n{len(res.races)} data race(s):")
        for race in res.races:
            print(f"  {race}")
    elif args.mode == "record":
        print("\ndetection deferred (record mode): replay the trace with "
              "--mode detect-offline to get the race report")
    else:
        print("\nno data races detected")
    if args.report:
        from repro.harness.format import race_report_lines
        with open(args.report, "w") as fh:
            for line in race_report_lines(res):
                fh.write(line + "\n")
    from repro.exitcodes import EXIT_CLEAN, EXIT_RACES
    return EXIT_RACES if res.races else EXIT_CLEAN


def cmd_report(args) -> int:
    from repro.harness.experiments import main as harness_main
    argv = ["--write", args.write] if args.write else []
    return harness_main(argv)


def cmd_attribute(args) -> int:
    from repro.errors import ConfigError
    from repro.replay import attribute_races
    if args.mode != "online":
        raise ConfigError(
            f"attribute runs its own two-run record/replay protocol and "
            f"cannot compose with --mode {args.mode}; drop --mode/--trace-file")
    spec, params, overrides = _run_plan(args)
    report = attribute_races(spec.func, params, spec.config(**overrides))
    if not report.races:
        print("no races to attribute")
        return 0
    print(f"{len(report.races)} races; synchronization log "
          f"{report.log_bytes} bytes; {report.replay_grants} grants "
          "replayed.  Sites per racy variable:")
    by_symbol = {}
    for addr, hits in report.sites.items():
        symbol = report.symbol_of[addr].split("+")[0]
        by_symbol.setdefault(symbol, set()).update(h.site for h in hits)
    for symbol in sorted(by_symbol):
        print(f"  {symbol}:")
        for site in sorted(by_symbol[symbol]):
            print(f"    {site}")
    return 0


def cmd_timeline(args) -> int:
    from repro.core.timeline import timeline_from_run
    from repro.dsm.cvm import CVM
    from repro.errors import ConfigError
    if args.mode != "online":
        raise ConfigError(
            f"timeline needs the detector's interval metadata and cannot "
            f"compose with --mode {args.mode}; drop --mode/--trace-file")
    spec, params, overrides = _run_plan(args, track_access_trace=True)
    system = CVM(spec.config(**overrides))
    result = system.run(spec.func, params)
    print(timeline_from_run(system, result))
    if result.races:
        print(f"\n{len(result.races)} race(s); '!' marks intervals "
              "touching a racy word")
    return 0


def cmd_table2(_args) -> int:
    from repro.harness.table2 import compute_table2, render_table2
    print(render_table2(compute_table2()))
    return 0


#: Kernel-language applications (docs/language.md): disassembled from
#: their DSL sources rather than the scalar-kernel builders.
_DSL_DISASM = ("wsdeque", "bfs", "hashtab")


def cmd_disasm(args) -> int:
    from repro.instrument.asm import disassemble
    from repro.instrument.atom import AtomRewriter
    from repro.instrument.binaries import binary_for
    from repro.instrument.isa import Section
    if args.app in _DSL_DISASM:
        import importlib

        from repro.instrument.linker import link
        from repro.instrument.parser import compile_source
        mod = importlib.import_module(f"repro.apps.{args.app}")
        obj = compile_source(mod.SOURCE, args.app, regalloc=args.regalloc)
        image = link(args.app, [obj], libraries=[], include_cvm=False,
                     strict=True)
    else:
        image = binary_for(args.app, regalloc=args.regalloc)
    if args.instrumented:
        image = AtomRewriter().instrument(image)
    if args.lowered:
        # What the machine executes: only application code is lowered.
        from repro.instrument.lower import lower_image
        low = lower_image(image)
        for name in sorted(low.code):
            print(low.listing(image.functions[name]))
            print()
    elif not args.full:
        # Application code only (libraries are synthetic filler).
        for name in sorted(image.functions):
            fn = image.functions[name]
            if fn.section is Section.APP:
                from repro.instrument.asm import disassemble_function
                print(disassemble_function(fn))
                print()
    else:
        print(disassemble(image))
    return 0


def _parse_seeds(text: str) -> List[int]:
    """``A:B`` (half-open range) or ``A,B,C`` seed sweep for submit."""
    from repro.errors import ConfigError
    try:
        if ":" in text:
            lo, hi = (int(part) for part in text.split(":", 1))
            if hi <= lo:
                raise ValueError
            return list(range(lo, hi))
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"--seeds {text!r} is neither a half-open range A:B nor a "
            f"comma list A,B,C")


def _parse_overrides(items: List[str]) -> dict:
    """``--set key=value`` pairs; values parse as JSON, falling back to
    bare strings (so ``--set loss_rate=0.05`` and ``--set
    trace_file=/tmp/t.log`` both work)."""
    import json
    from repro.errors import ConfigError
    overrides = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set {item!r} is not key=value")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def cmd_fleet_submit(args) -> int:
    from repro.fleet import FleetSpool, JobSpec
    spool = FleetSpool(args.spool)
    overrides = _parse_overrides(args.set)
    if args.trace_file:
        overrides["trace_file"] = args.trace_file
    chaos = {}
    if args.chaos_exit_code is not None:
        chaos["exit_code"] = args.chaos_exit_code
    if args.chaos_hang:
        chaos["hang"] = True
    nprocs = _nprocs(args)
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    for seed in seeds:
        job_id = spool.next_job_id()
        job_overrides = dict(overrides)
        if args.checkpoint:
            # Scoped per job: two fleet jobs never share a checkpoint
            # directory (the CheckpointManager lock would refuse it).
            job_overrides["checkpoint_dir"] = \
                spool.checkpoint_dir_for(job_id)
        spec = JobSpec(
            job_id=job_id, app=args.app, mode=args.mode, nprocs=nprocs,
            seed=seed, overrides=job_overrides,
            deadline_seconds=args.deadline,
            max_retries=args.max_retries, max_crashes=args.max_crashes,
            chaos=chaos)
        spool.submit(spec, limit=args.queue_limit)
        print(f"submitted {job_id}: {spec.app}/{spec.mode} seed={seed} "
              f"nprocs={nprocs} (priority class {spec.priority})")
    return 0


def cmd_fleet_serve(args) -> int:
    from repro.fleet import FleetService
    service = FleetService(
        args.spool, slots=args.slots, queue_limit=args.queue_limit,
        poll_interval=args.poll_interval,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        deadline_grace=args.deadline_grace,
        backoff_base=args.backoff_base, backoff_cap=args.backoff_cap,
        drain_on_empty=args.drain_on_empty,
        chaos_kill_worker=args.chaos_kill_worker,
        chaos_kill_after=args.chaos_kill_after)
    return service.serve(resume=args.resume)


def cmd_fleet_status(args) -> int:
    from repro.fleet import FleetSpool, status_text
    print(status_text(FleetSpool(args.spool)), end="")
    return 0


def cmd_fleet_drain(args) -> int:
    from repro.fleet import FleetSpool
    spool = FleetSpool(args.spool)
    spool.ensure()
    with open(spool.drain_path, "w", encoding="utf-8"):
        pass
    print(f"drain requested: {spool.drain_path} (the service stops "
          f"admission, finishes in-flight jobs, writes the aggregate "
          f"and exits)")
    return 0


def _add_fleet_options(sub) -> None:
    def spool_arg(p):
        p.add_argument("--spool", required=True, metavar="DIR",
                       help="fleet spool directory (queue, journal, "
                            "results, aggregate)")

    p_serve = sub.add_parser(
        "serve", help="run the supervised detection service")
    spool_arg(p_serve)
    p_serve.add_argument("--slots", type=int, default=4,
                         help="worker-pool size in slots; a job costs "
                              "ceil(nprocs/8) slots (default 4)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="admission bound of the in-memory queue")
    p_serve.add_argument("--resume", action="store_true",
                         help="recover queue/in-flight/results state "
                              "from the spool journal after the service "
                              "was killed")
    p_serve.add_argument("--drain-on-empty", action="store_true",
                         help="exit (with the aggregate) once every "
                              "submitted job is terminal and the spool "
                              "is empty — batch mode")
    p_serve.add_argument("--poll-interval", type=float, default=0.05)
    p_serve.add_argument("--heartbeat-interval", type=float, default=0.2)
    p_serve.add_argument("--heartbeat-timeout", type=float, default=5.0,
                         help="silence past which a worker is declared "
                              "hung and SIGKILLed")
    p_serve.add_argument("--deadline-grace", type=float, default=2.0,
                         help="extra seconds past a job's --deadline "
                              "before the supervisor kills the worker "
                              "(the in-run guard should fire first)")
    p_serve.add_argument("--backoff-base", type=float, default=0.1)
    p_serve.add_argument("--backoff-cap", type=float, default=2.0)
    p_serve.add_argument("--chaos-kill-worker", type=int, default=0,
                         metavar="N",
                         help="fault injection: SIGKILL the Nth started "
                              "worker once, mid-job (tests/CI)")
    p_serve.add_argument("--chaos-kill-after", type=float, default=0.15)
    p_serve.set_defaults(func=cmd_fleet_serve)

    p_sub = sub.add_parser("submit", help="spool a detection job")
    spool_arg(p_sub)
    p_sub.add_argument("app")
    p_sub.add_argument("--mode",
                       choices=["online", "record", "detect-offline"],
                       default="online",
                       help="also the priority class: record < "
                            "detect-offline < online")
    p_sub.add_argument("--procs", type=int, default=4)
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--seeds", default=None, metavar="A:B|A,B,C",
                       help="submit one job per seed (sweep); the "
                            "aggregate dedups races across them")
    p_sub.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS")
    p_sub.add_argument("--max-retries", type=int, default=2)
    p_sub.add_argument("--max-crashes", type=int, default=2)
    p_sub.add_argument("--trace-file", default=None, metavar="PATH")
    p_sub.add_argument("--checkpoint", action="store_true",
                       help="checkpoint under the spool's per-job scope "
                            "(ckpt/<job-id>)")
    p_sub.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="extra DsmConfig override (repeatable), "
                            "e.g. --set loss_rate=0.05")
    p_sub.add_argument("--chaos-exit-code", type=int, default=None,
                       help="fault injection: worker exits with this "
                            "code instead of running (tests/CI)")
    p_sub.add_argument("--chaos-hang", action="store_true",
                       help="fault injection: worker hangs silently "
                            "(tests/CI)")
    p_sub.add_argument("--queue-limit", type=int, default=64,
                       help="spool-side admission bound; past it submit "
                            "refuses with an AdmissionError (exit 3)")
    p_sub.set_defaults(func=cmd_fleet_submit)

    p_stat = sub.add_parser("status", help="show fleet state from the "
                                           "journal (no service needed)")
    spool_arg(p_stat)
    p_stat.set_defaults(func=cmd_fleet_status)

    p_drain = sub.add_parser("drain",
                             help="ask the service to drain and exit")
    spool_arg(p_drain)
    p_drain.set_defaults(func=cmd_fleet_drain)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps").set_defaults(func=cmd_apps)

    p_run = sub.add_parser("run", help="run an application")
    _add_run_options(p_run)
    p_run.add_argument("--report", default=None, metavar="PATH",
                       help="also write the race report (one sorted line "
                            "per race) to PATH — lets CI diff reports "
                            "across fault seeds, loss rates and crash "
                            "seeds (unverifiable crash-degradation entries "
                            "go to stdout only, keeping the file "
                            "comparable)")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="regenerate tables and figures")
    p_rep.add_argument("--write", default=None, metavar="PATH")
    p_rep.set_defaults(func=cmd_report)

    p_att = sub.add_parser("attribute",
                           help="two-run racy-access attribution (§6.1)")
    _add_run_options(p_att)
    p_att.set_defaults(func=cmd_attribute)

    sub.add_parser("table2").set_defaults(func=cmd_table2)

    p_tl = sub.add_parser("timeline",
                          help="interval/happens-before timeline of a run")
    _add_run_options(p_tl)
    p_tl.set_defaults(func=cmd_timeline)

    p_dis = sub.add_parser("disasm", help="disassemble a kernel binary")
    p_dis.add_argument("app", choices=["fft", "sor", "tsp", "water", "lu",
                                       "wsdeque", "bfs", "hashtab"])
    p_dis.add_argument("--regalloc", choices=["naive", "linear"],
                       default="naive",
                       help="register allocator (default: naive, the "
                            "codegen the committed tables are pinned to)")
    p_dis.add_argument("--instrumented", action="store_true")
    p_dis.add_argument("--full", action="store_true",
                       help="include synthetic library code")
    p_dis.add_argument("--lowered", action="store_true",
                       help="print the lowered form instead: per function "
                            "the register slot map and the basic-block "
                            "source the machine executes, each statement "
                            "annotated with its instruction")
    p_dis.set_defaults(func=cmd_disasm)

    p_fleet = sub.add_parser(
        "fleet", help="supervised, crash-tolerant multi-run service")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    _add_fleet_options(fleet_sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ConfigError, ReproError, SegmentExhausted
    from repro.exitcodes import EXIT_CONFIG, EXIT_TIMEOUT, classify_exception
    try:
        return args.func(args)
    except (ReproError, ValueError) as exc:
        if isinstance(getattr(exc, "original", None), SegmentExhausted):
            exc = ConfigError(
                f"{exc.original}: these parameters (--paper-input?) outgrow "
                f"segment_words and the app declares no footprint_words")
        code = classify_exception(exc)
        label = {EXIT_CONFIG: "configuration error",
                 EXIT_TIMEOUT: "deadline exceeded"}.get(code, "error")
        print(f"repro: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
