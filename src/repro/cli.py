"""Command-line interface.

Usage (``python -m repro.cli <command> ...``)::

    apps                         list the bundled applications
    run APP [options]            run one application and report races
    report [--write PATH]        regenerate every table and figure
    attribute APP [options]      two-run §6.1 racy-access attribution
    timeline APP [options]       interval/happens-before timeline of a run
    table2                       static instrumentation statistics
    disasm APP [--instrumented] [--lowered]
                                 mini-ISA listing of an app kernel binary,
                                 or the block code it is lowered to

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


class _Counters(dict):
    """A run's ``metrics`` read by name; ``m[a+b]`` reads a sum."""

    def __missing__(self, key: str):
        if "+" not in key:
            raise KeyError(key)
        return sum(self[name] for name in key.split("+"))


#: The summary ``run`` prints: ``(when, line)`` rows in print order.
#: ``when(args, res)`` selects a row; its line formats over the parsed
#: ``args``, the run's config ``c`` and counters ``m`` (``m[dotted.name]``,
#: see ``RunResult.metrics``), ``ms`` (virtual runtime), ``slowdown``,
#: ``ipb`` (intervals per barrier) and ``to_dir`` (checkpoint target).
_SUMMARY = (
    (lambda a, r: True,
     "{args.app} on {c.nprocs} simulated processes ({args.protocol} protocol, "
     "{args.policy} seed {args.seed})"),
    (lambda a, r: a.mode == "online" and not a.resume_from,
     "  runtime: {ms:.2f} virtual ms, slowdown {slowdown:.2f}x"),
    (lambda a, r: a.mode == "record",
     "  runtime: {ms:.2f} virtual ms (recording to {args.trace_file})"),
    (lambda a, r: a.mode == "detect-offline",
     "  runtime: {ms:.2f} virtual ms (replaying {args.trace_file})"),
    (lambda a, r: a.mode == "online" and a.resume_from,
     "  runtime: {ms:.2f} virtual ms (resumed from {args.resume_from})"),
    (lambda a, r: True,
     "  memory: {m[dsm.segment.high_water_kbytes]:.1f} KB shared, "
     "{m[dsm.sync.barriers]} barriers, {m[dsm.sync.lock_acquires]} lock "
     "acquires, {ipb:.1f} intervals/barrier"),
    (lambda a, r: r.detector_stats,
     "  detector: {m[core.detector.comparisons]} comparisons, "
     "{m[core.detector.concurrent_pairs]} concurrent pairs, "
     "{m[core.detector.bitmaps_fetched]}/{m[core.detector.bitmaps_created]} "
     "bitmaps fetched"),
    (lambda a, r: r.detector_stats and r.config.coarse_filter,
     "  filter: "
     "{m[core.detector.pairs_filtered]}/{m[core.detector.granule_checks]} "
     "combination(s) proven race-free by digest, "
     "{m[core.detector.granule_hits]} granule hit(s) fetched, "
     "{m[net.transport.digest_bytes]} digest bytes carried"),
    (lambda a, r: a.mode == "record",
     "  record: {m[replay.trace.entries]} sync entries "
     "({m[replay.trace.lock_grants]} lock grants, "
     "{m[replay.trace.barrier_arrivals]} barrier arrivals, "
     "{m[replay.trace.deliveries]} message deliveries), "
     "{m[replay.trace.bytes]} trace bytes"),
    (lambda a, r: a.mode == "detect-offline",
     "  replay: {m[replay.trace.grants_replayed]} lock grants steered, "
     "{m[replay.trace.arrivals_verified]} barrier arrivals and "
     "{m[replay.trace.deliveries_verified]} deliveries verified against the "
     "trace"),
    (lambda a, r: r.config.faults_enabled,
     "  network: {m[net.reliable.drops]} drops, {m[net.reliable.retransmits]} "
     "retransmits, {m[net.reliable.duplicates]} duplicates suppressed, "
     "{m[net.reliable.reorders]} reorders, {m[net.reliable.retry_failures]} "
     "retry failures"),
    (lambda a, r: (r.config.faults_enabled and r.detector_stats
                   and r.metrics["core.detector.page_granularity_reports"]),
     "  degradation: {m[core.detector.page_granularity_reports]} "
     "page-granularity report(s) after "
     "{m[core.detector.bitmap_rounds_failed]} failed bitmap round(s)"),
    (lambda a, r: r.config.crashes_enabled,
     "  crashes: {m[sim.crash.crashes]} injected "
     "({m[sim.crash.deaths_declared]} declared dead by the master), "
     "{m[sim.crash.recoveries_from_checkpoint]} checkpoint recoveries, "
     "{m[sim.crash.recoveries_without_checkpoint]} restart recoveries, "
     "{m[sim.crash.intervals_lost]} interval(s) lost"),
    (lambda a, r: r.config.checkpointing_enabled,
     "  checkpoints: {m[dsm.checkpoint.takes]} written, "
     "{m[dsm.checkpoint.bytes_written]} bytes{to_dir}"),
    (lambda a, r: r.config.sharded_detection,
     "  sharding: {m[dsm.sharding.epochs_sharded]}/"
     "{m[dsm.sharding.epochs_sharded+dsm.sharding.epochs_centralized]} "
     "epoch(s) sharded, {m[dsm.sharding.shards_dispatched]} shard(s), "
     "{m[dsm.sharding.records_shipped]} record(s) shipped, "
     "{m[dsm.sharding.bytes_scattered+dsm.sharding.bytes_reduced]} "
     "scatter/reduce bytes, {m[dsm.sharding.bitmap_fetch_messages]} bitmap "
     "fetch(es) ({m[dsm.sharding.bitmap_fetch_bytes]} bytes), "
     "{m[dsm.sharding.fallbacks_owner_crash+dsm.sharding.fallbacks_network]} "
     "fallback(s)"),
    (lambda a, r: r.config.master_failover,
     "  failover: {m[dsm.failover.elections_held]} election(s), "
     "{m[dsm.failover.state_bytes_migrated]} state bytes migrated, "
     "{m[dsm.failover.records_resolicited]} record(s) re-solicited, "
     "{m[dsm.failover.state_checkpoints]} journal write(s) "
     "({m[dsm.failover.state_checkpoint_bytes]} bytes)"),
)


def render_summary(args, res, slowdown: Optional[float]) -> List[str]:
    """The summary lines of run ``res`` (``slowdown``: the measured one,
    or ``None`` for a single run)."""
    target = res.config.checkpoint_dir
    values = dict(args=args, c=res.config, m=_Counters(res.metrics),
                  ms=res.runtime_seconds * 1e3, slowdown=slowdown,
                  ipb=res.intervals_per_barrier,
                  to_dir=f" -> {target}" if target else "")
    return [line.format(**values) for when, line in _SUMMARY
            if when(args, res)]


def cmd_run(args) -> int:
    spec, params, overrides = _run_plan(args)
    if args.resume_from or args.mode != "online":
        # A resumed run must match the original checkpointed run exactly,
        # so only the detection-on run is performed (measure()'s
        # uninstrumented baseline would diverge from the snapshots).
        # The two-phase modes are likewise single runs: record forces
        # detection off and logs the synchronization order; detect-offline
        # replays the trace with detection on.
        res = spec.run(params=params, **overrides)
        slowdown = None
    else:
        result = measure(spec, params=params, **overrides)
        res, slowdown = result.detected, result.slowdown
    print("\n".join(render_summary(args, res, slowdown)))
    if res.unverifiable and res.detector_stats is not None:
        print(f"\n{len(res.unverifiable)} unverifiable concurrent "
              f"pair entr(ies) — crash-lost metadata "
              f"({res.metrics['core.detector.unverifiable_pairs']} "
              f"distinct pair(s)):")
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
