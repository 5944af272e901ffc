"""The rep protocol of one workload, run inside one fresh process.

``measure()`` does, in order: *setup* (DSL compile with the cache
cleared, a detection-off baseline of every cell, the oracle cells, one
warm-up rep; repeated ``SETUP_PASSES`` times, pinned to one CPU, and
reported as import time + the median pass) -> *timed reps*, interleaved
all-CPUs / one-CPU, tracing off, ``gc.collect()`` outside the timed
region -> with ``--trace 1``: the layer microbenchmarks, one untraced rep
for the counters and one traced rep for the per-layer times.

Every rep is timed twice: wall clock, and CPU seconds of the whole process
(``time.process_time``, all threads).  The gated host-time metrics
(``setup_s``, ``cpu_s``) are CPU seconds, because the hypervisor of the
reference box takes the CPUs away for 20-30 % of the time in phases that
last minutes: wall clock then moves by 40 % between two runs of one
commit, CPU seconds by far less.  Wall clock is reported per layer.

Every rep's *sim fingerprint* must equal the first warm-up rep's: host
speed may move, simulated behaviour at a fixed seed may not.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import micro
import oracle
from trace import DETECTOR_SPANS, Tracer
from workloads import (DSL_APPS, MIN_REPS, ORACLE_CAP_S, QUICK_REPS,
                       SCHEDULE_SEED, SETUP_PASSES, WORK, Cell, Workload,
                       spec_of)

from repro.apps import bfs, hashtab, wsdeque
from repro.apps.dsl import compiled_image
from repro.dsm.cvm import CVM

ALL_CPUS = frozenset(os.sched_getaffinity(0))
ONE_CPU = frozenset({min(ALL_CPUS)})

DSL_SOURCES = {"bfs": bfs.SOURCE, "hashtab": hashtab.SOURCE,
               "wsdeque": wsdeque.SOURCE}

Run = Tuple[CVM, Any]  # (system, RunResult) of one cell


@dataclass
class Metric:
    value: float
    unit: str
    #: Samples the value summarizes (empty for counts and single readings).
    samples: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"value": self.value, "unit": self.unit}
        if len(self.samples) >= 2:
            q1, _q2, q3 = statistics.quantiles(self.samples, n=4)
            out.update(n=len(self.samples), q1=q1, q3=q3)
        return out


# ---------------------------------------------------------------------- #
# Running cells and reps.
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh directory under ``WORK`` for one rep's checkpoint directory
    and trace file, removed afterwards."""
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=prefix, dir=WORK)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_cell(cell: Cell, seed: int, tmp: str,
             tracer: Optional[Tracer] = None, **overrides: Any) -> Run:
    """One cell on a fresh CVM.  The main thread's CPU affinity is
    whatever the caller set; the simulation threads inherit it."""
    spec = spec_of(cell.app)
    flags = dict(cell.config_flags(seed, tmp), **overrides)
    cfg = spec.config(nprocs=cell.nprocs, **flags)
    params = cell.params if cell.params is not None else spec.default_params
    if tracer is None:
        system = CVM(cfg)
        return system, system.run(spec.func, params)
    layer = "instrument.machine" if cell.app in DSL_APPS else "apps"
    with tracer.cell(cell.label):
        system = CVM(cfg)
        tracer.install(system)
        return system, system.run(
            tracer.wrap_app(spec.func, layer, cell.label), params)


def run_baseline(cell: Cell) -> float:
    """Virtual cycles of the unaltered CVM on the cell's program: same
    app, size, interleaving policy and seed; detection, faults,
    checkpoints and record/replay all off."""
    spec = spec_of(cell.app)
    result = spec.run(nprocs=cell.nprocs, detection=False,
                      params=cell.params, seed=SCHEDULE_SEED,
                      policy=cell.flags.get("policy", "round_robin"))
    return result.runtime_cycles


def fingerprint(results: List[Any]) -> str:
    """Hash of everything observable about a rep's simulated behaviour
    (the tuple ``bench_endtoend._fingerprint`` compares), per cell."""
    observed = [(
        tuple(r.key() for r in res.races),
        res.detector_stats,
        res.runtime_cycles,
        res.shared_instr_calls,
        res.traffic.total_messages,
        res.traffic.total_bytes,
        tuple(tuple(sorted((c.name, t) for c, t in ledger.totals.items()))
              for ledger in res.ledgers),
    ) for res in results]
    return hashlib.sha256(repr(observed).encode()).hexdigest()[:16]


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    fingerprint: str
    runs: List[Run]


def run_rep(workload: Workload, seed: int, cpus: frozenset,
            tracer: Optional[Tracer] = None) -> Rep:
    """Every cell of the workload once.  Scratch creation, ``gc`` and
    scratch removal sit outside the timed region."""
    with scratch(f"{workload.name}-") as tmp:
        os.sched_setaffinity(0, cpus)
        try:
            gc.collect()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            runs = [run_cell(cell, seed, tmp, tracer)
                    for cell in workload.cells]
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        finally:
            os.sched_setaffinity(0, ALL_CPUS)
    return Rep(wall, cpu, fingerprint([res for _sys, res in runs]), runs)


class RepLog:
    """Attempted / failed reps against the reference fingerprint."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[str] = None

    def run(self, label: str, *args: Any, **kwargs: Any) -> Optional[Rep]:
        self.attempted += 1
        try:
            rep = run_rep(*args, **kwargs)
        except Exception:  # a failed rep is a result, not a crash
            self.failed += 1
            print(f"rep {label} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        if self.reference is None:
            self.reference = rep.fingerprint
        elif rep.fingerprint != self.reference:
            self.failed += 1
            print(f"rep {label}: sim fingerprint {rep.fingerprint} != "
                  f"reference {self.reference}", file=sys.stderr)
        return rep


# ---------------------------------------------------------------------- #
# Setup.
# ---------------------------------------------------------------------- #
def compile_dsl(workload: Workload) -> float:
    """Compile + link + ATOM-rewrite the workload's DSL programs from a
    cleared cache; seconds (0 for a workload without DSL apps)."""
    names = sorted({c.app for c in workload.cells} & DSL_APPS)
    if not names:
        return 0.0
    compiled_image.cache_clear()
    t0 = time.perf_counter()
    for name in names:
        compiled_image(name, DSL_SOURCES[name])
    return time.perf_counter() - t0


def run_oracle(workload: Workload, seed: int) -> oracle.Agreement:
    agreement = oracle.Agreement()
    with scratch(f"{workload.name}-oracle-") as tmp:
        for cell in workload.oracle:
            t0 = time.perf_counter()
            system, result = run_cell(cell, seed, tmp,
                                      track_access_trace=True)
            if result.detector_stats is not None:  # not the record cell
                agreement.add(cell.label, oracle.online_keys(result),
                              oracle.oracle_keys(system, result))
            took = time.perf_counter() - t0
            if took > ORACLE_CAP_S:
                print(f"oracle cell {cell.label} took {took:.2f} s "
                      f"(cap {ORACLE_CAP_S} s): shrink its params",
                      file=sys.stderr)
    return agreement


@dataclass
class Setup:
    pass_s: List[float]
    compile_s: float
    agreement: oracle.Agreement
    sim_cycles: float
    sim_slowdown: float


def run_setup(workload: Workload, seed: int, passes: int,
              log: RepLog) -> Setup:
    pass_s: List[float] = []
    for i in range(passes):
        os.sched_setaffinity(0, ONE_CPU)  # run_rep hands back all CPUs
        t0 = time.process_time()
        compile_s = compile_dsl(workload)
        base = [run_baseline(cell) for cell in workload.cells]
        agreement = run_oracle(workload, seed)
        warm = log.run(f"warm-up {i}", workload, seed, ONE_CPU)
        pass_s.append(time.process_time() - t0)
    if warm is None:
        raise SystemExit("warm-up rep failed; nothing to measure")
    on = [res.runtime_cycles for _sys, res in warm.runs]
    return Setup(pass_s, compile_s, agreement, sum(on),
                 statistics.fmean(o / b for o, b in zip(on, base)))


# ---------------------------------------------------------------------- #
# Per-layer numbers.
# ---------------------------------------------------------------------- #
def count_metrics(runs: List[Run]) -> Dict[str, Metric]:
    """Work counters from the public result objects of an untraced rep,
    summed over cells."""
    total: Dict[str, float] = {}
    checks = hits = 0

    def add(name: str, value: float) -> None:
        total[name] = total.get(name, 0) + value

    for system, res in runs:
        add("sim.scheduler.switches", system.scheduler.switches)
        add("sim.scheduler.yields",
            sum(p.yields for p in system.scheduler.processes.values()))
        add("dsm.env.words", res.shared_instr_calls)
        for key in ("read_faults", "write_faults", "invalidations",
                    "ownership_transfers"):
            add(f"dsm.protocol.{key}", res.protocol_stats[key])
        add("dsm.sync.lock_acquires", res.lock_acquires)
        add("dsm.sync.contended_acquires",
            sum(contended for _acq, contended in res.lock_stats.values()))
        add("dsm.sync.barriers", res.barriers_completed)
        add("dsm.interval.created", res.intervals_created)
        traffic = res.traffic
        add("net.transport.messages", traffic.total_messages)
        add("net.transport.bytes", traffic.total_bytes)
        for key in ("read_notice_bytes", "bitmap_round_bytes",
                    "digest_bytes"):
            add(f"net.transport.{key}", getattr(traffic, key))
        for key in ("retransmits", "drops", "duplicates", "acks"):
            add(f"net.reliable.{key}", getattr(traffic, key))
        stats = res.detector_stats
        for name, key in (("epochs", "epochs_checked"),
                          ("intervals", "intervals_total"),
                          ("comparisons", "interval_comparisons"),
                          ("concurrent_pairs", "concurrent_pairs"),
                          ("checklist_entries", "overlapping_pairs"),
                          ("bitmaps_fetched", "bitmaps_fetched"),
                          ("pairs_filtered", "pairs_filtered"),
                          ("races", "races_found")):
            add(f"core.detector.{name}", getattr(stats, key) if stats else 0)
        if stats:
            checks += stats.granule_checks
            hits += stats.granule_hits
        add("core.detector.probes",
            system.detector.actual_comparisons if system.detector else 0)
        add("dsm.checkpoint.takes", res.crash_stats.checkpoints_written)
        add("dsm.checkpoint.bytes_written", res.crash_stats.checkpoint_bytes)
        recorded = res.record_stats or {}
        add("replay.trace.entries", recorded.get("entries_recorded", 0))
        add("replay.trace.bytes", recorded.get("trace_bytes", 0))
    out = {name: Metric(value, "bytes" if "bytes" in name else "count")
           for name, value in total.items()}
    out["core.detector.filter_hit_ratio"] = Metric(
        hits / checks if checks else 0.0, "ratio")
    return out


def micro_metrics() -> Dict[str, Metric]:
    out = {name: Metric(value, "ns") for name, value in
           {**micro.clock_micro(), **micro.bitmap_micro(),
            **micro.env_micro()}.items()}
    for cpus, infix in ((ALL_CPUS, ""), (ONE_CPU, "1cpu_")):
        os.sched_setaffinity(0, cpus)
        for nprocs in (8, 32):
            out[f"sim.scheduler.ping_{infix}us_{nprocs}"] = Metric(
                micro.ping_us(nprocs), "us")
    os.sched_setaffinity(0, ALL_CPUS)
    return out


def traced_metrics(workload: Workload, tracer: Tracer, switches: float,
                   messages: float) -> Dict[str, Metric]:
    summary = tracer.summarize()
    if summary.handoff_anomalies:
        print(f"trace: {summary.handoff_anomalies} out/in events did not "
              "alternate; handoff_s is approximate", file=sys.stderr)
    self_s, calls = summary.self_s, summary.calls
    seconds = {
        "dsm.env.self_s": self_s.get("dsm.env", 0.0),
        "dsm.protocol.self_s": self_s.get("dsm.protocol", 0.0),
        "dsm.sync.self_s": self_s.get("dsm.sync", 0.0),
        "dsm.cvm.self_s": self_s.get("dsm.cvm", 0.0),
        "net.transport.self_s": self_s.get("net.transport", 0.0),
        "net.reliable.self_s": self_s.get("net.reliable", 0.0),
        "dsm.checkpoint.take_s": self_s.get("dsm.checkpoint", 0.0),
        "instrument.machine.self_s": self_s.get("instrument.machine", 0.0),
        "apps.self_s": self_s.get("apps", 0.0),
        "sim.scheduler.handoff_s": summary.handoff_s,
        "core.detector.epoch_s": sum(summary.inclusive_s.get(name, 0.0)
                                     for name in DETECTOR_SPANS),
        "replay.trace.record_run_s": 0.0,
        "replay.trace.offline_run_s": 0.0,
    }
    for cell in workload.cells:
        for mode, name in (("record", "replay.trace.record_run_s"),
                           ("detect-offline", "replay.trace.offline_run_s")):
            if cell.flags.get("mode") == mode:
                seconds[name] = summary.cell_wall_s[cell.label]
    (seconds["core.concurrency.pair_search_s"],
     seconds["core.checklist.build_s"],
     seconds["core.detector.replay_s"]) = micro.replay_detection(
         tracer.captured)
    out = {name: Metric(value, "s") for name, value in seconds.items()}
    out["dsm.env.scalar_calls"] = Metric(
        calls.get("dsm.env:load", 0) + calls.get("dsm.env:store", 0),
        "count")
    out["dsm.env.range_calls"] = Metric(
        calls.get("dsm.env:load_range", 0)
        + calls.get("dsm.env:store_range", 0), "count")
    out["dsm.interval.live_records_hwm"] = Metric(
        tracer.live_records_hwm, "count")
    out["sim.scheduler.handoff_us"] = Metric(
        summary.handoff_s / switches * 1e6, "us")
    out["sim.scheduler.handoff_share"] = Metric(
        summary.handoff_s / summary.wall_s, "ratio")
    out["net.transport.us_per_msg"] = Metric(
        seconds["net.transport.self_s"] / messages * 1e6 if messages
        else 0.0, "us")
    out["core.detector.share"] = Metric(
        seconds["core.detector.epoch_s"] / summary.wall_s, "ratio")
    out["trace.coverage"] = Metric(summary.coverage, "ratio")
    return out


# ---------------------------------------------------------------------- #
# The protocol.
# ---------------------------------------------------------------------- #
@dataclass
class Record:
    workload: str
    seed: int
    sim_fingerprint: str
    #: Fingerprint of the traced rep (None without ``--trace 1``); tracing
    #: must not change simulated behaviour, so it equals the one above.
    traced_fingerprint: Optional[str]
    attempted: int
    failed: int
    reps_per_mode: int
    setup_passes: int
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric]
    notes: List[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "seed": self.seed,
            "sim_fingerprint": self.sim_fingerprint,
            "traced_fingerprint": self.traced_fingerprint,
            "attempted": self.attempted, "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "reps_per_mode": self.reps_per_mode,
            "setup_passes": self.setup_passes,
            "end_to_end": {k: m.to_dict()
                           for k, m in self.end_to_end.items()},
            "per_layer": {k: m.to_dict()
                          for k, m in self.per_layer.items()},
            "notes": self.notes,
        }


def measure(workload: Workload, seed: int, seconds: float, quick: bool,
            end_to_end: bool, per_layer: bool, import_s: float,
            trace_out: Optional[str] = None) -> Record:
    """``import_s`` is the process's CPU time once everything is imported."""
    log = RepLog()
    setup = run_setup(workload, seed,
                      SETUP_PASSES if end_to_end and not quick else 1, log)

    # The unpinned reps feed per-layer metrics only (wall_s and the
    # affinity penalty); without them a --trace 0 run spends its whole
    # measuring time on the reps the gated cpu_s is taken from.
    modes = (ALL_CPUS, ONE_CPU) if per_layer else (ONE_CPU,)
    # Only the two times of a timed rep are kept: holding on to its CVMs
    # would make peak_rss_mb grow with the number of reps.
    wall: Dict[frozenset, List[float]] = {cpus: [] for cpus in modes}
    pinned_cpu: List[float] = []
    deadline = time.perf_counter() + seconds
    reps = 0
    while (reps < (QUICK_REPS if quick else MIN_REPS)
           or (not quick and time.perf_counter() < deadline)):
        for cpus in modes:
            rep = log.run(f"{reps} on {len(cpus)} cpu(s)", workload, seed,
                          cpus)
            if rep is not None:
                wall[cpus].append(rep.wall_s)
                if cpus is ONE_CPU:
                    pinned_cpu.append(rep.cpu_s)
        reps += 1
    if not all(wall.values()):
        raise SystemExit("every timed rep failed; nothing to report")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    agreement = setup.agreement
    e2e = {
        "setup_s": Metric(import_s + statistics.median(setup.pass_s), "s",
                          [import_s + s for s in setup.pass_s]),
        # Pinned, interference only ever adds, so the best rep is the
        # program's own cost (timeit's rule, and this repo's perf.timing).
        "cpu_s": Metric(min(pinned_cpu), "s", pinned_cpu),
        "peak_rss_mb": Metric(peak_rss_mb, "MB"),
        "sim_cycles": Metric(setup.sim_cycles, "cycles"),
        "sim_slowdown": Metric(setup.sim_slowdown, "ratio"),
        "oracle_recall": Metric(agreement.recall, "ratio"),
        "oracle_precision": Metric(agreement.precision, "ratio"),
    }

    layers: Dict[str, Metric] = {}
    traced = None
    if per_layer:
        layers["wall_s"] = Metric(statistics.median(wall[ALL_CPUS]), "s",
                                  wall[ALL_CPUS])
        layers["wall_1cpu_s"] = Metric(statistics.median(wall[ONE_CPU]), "s",
                                       wall[ONE_CPU])
        layers["sim.scheduler.affinity_penalty"] = Metric(
            layers["wall_s"].value / layers["wall_1cpu_s"].value, "ratio")
        layers.update(micro_metrics())
        layers["instrument.compile_s"] = Metric(setup.compile_s, "s")
        counted = log.run("counters", workload, seed, ONE_CPU)
        tracer = Tracer()
        traced = log.run("traced", workload, seed, ONE_CPU, tracer=tracer)
        if counted is None or traced is None:
            raise SystemExit("the counter or traced rep failed")
        if trace_out:
            tracer.write(trace_out)
        layers.update(count_metrics(counted.runs))
        layers.update(traced_metrics(
            workload, tracer,
            layers["sim.scheduler.switches"].value,
            layers["net.transport.messages"].value))
        layers["trace.overhead_ratio"] = Metric(
            traced.cpu_s / statistics.median(pinned_cpu), "ratio")

    return Record(workload.name, seed, log.reference,
                  traced.fingerprint if traced else None, log.attempted,
                  log.failed, reps, len(setup.pass_s),
                  e2e if end_to_end else {}, layers, agreement.describe())
