"""The CVM system facade: wiring, ``run()`` and the collected result.

:class:`CVM` wires together the deterministic scheduler, the simulated
transport, the shared segment, the coherence protocol, the synchronization
operations, the coordinator role with (when enabled) the race detector,
and crash recovery, then runs an SPMD application function on every
simulated process, each behind its own :class:`~repro.dsm.env.Env`.
The facade owns its collaborators, and nothing they hold owns the
facade: each collaborator is handed the siblings it uses at construction,
and the few that must reach a sibling built after them (or one that
holds them) keep a :func:`weakref.proxy` of the facade instead.  So a
finished run is one tree of references, freed as soon as its caller drops
the ``CVM``, not one cycle left for the garbage collector.  None of the
collaborators imports this module.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.baseline.trace import AccessTrace, check_capacity
from repro.core.detector import DetectorStats, RaceDetector
from repro.core.report import RaceReport
from repro.dsm.checkpoint import (CheckpointManager, ResumePoint,
                                  barrier_cut)
from repro.dsm.config import TWO_PHASE_MODES, DsmConfig
from repro.dsm.coordinator import (CoordinatorRole, FailoverStats,
                                   ShardingStats, make_detector)
from repro.dsm.env import Env
from repro.dsm.memory import SharedSegment
from repro.dsm.node import IntervalStore, Node
from repro.dsm.page import PageDirectory
from repro.dsm.protocol import make_protocol
from repro.dsm.recovery import Recovery
from repro.dsm.sync import Synchronizer
from repro.errors import SynchronizationError
from repro.net.message import WireSizer
from repro.net.reliable import ReliableChannel
from repro.net.stats import TrafficStats
from repro.net.transport import Transport
from repro.sim.costmodel import CostLedger
from repro.sim.crash import CrashInjector, CrashStats
from repro.sim.policy import make_policy
from repro.sim.scheduler import Scheduler


#: Registry names that differ from ``<layer>.<field>``: the names
#: BENCHMARK.json gives these counters.
METRIC_RENAMES = {
    **{f"core.detector.{old}": f"core.detector.{new}" for old, new in (
        ("epochs_checked", "epochs"), ("intervals_total", "intervals"),
        ("interval_comparisons", "comparisons"),
        ("overlapping_pairs", "checklist_entries"), ("races_found", "races"))},
    **{f"net.transport.{key}": f"net.reliable.{key}" for key in (
        "drops", "retransmits", "duplicates", "reorders", "acks",
        "retry_failures")},
    "sim.crash.checkpoints_written": "dsm.checkpoint.takes",
    "sim.crash.checkpoint_bytes": "dsm.checkpoint.bytes_written",
    "replay.trace.entries_recorded": "replay.trace.entries",
    "replay.trace.trace_bytes": "replay.trace.bytes",
}

#: ``RunResult.record_stats``' keys: ``lock_order.stats()`` per mode.
_RECORD_STATS = {"record": ("entries_recorded", "lock_grants",
                            "barrier_arrivals", "deliveries", "trace_bytes"),
                 "detect-offline": ("grants_replayed", "arrivals_verified",
                                    "deliveries_verified")}


def metric_name(layer: str, key: str) -> str:
    """The registry name of counter ``key`` of ``layer``."""
    name = f"{layer}.{key}"
    return METRIC_RENAMES.get(name, name)


def int_fields(stats) -> Dict[str, int]:
    """Every ``int`` field of a stats dataclass, in declaration order."""
    return {f.name: getattr(stats, f.name) for f in fields(stats)
            if isinstance(getattr(stats, f.name), int)}


def _metric(name: str) -> property:
    return property(lambda self: self.metrics[name])


@dataclass
class RunResult:
    """Everything a finished run exposes to the harness and to tests."""

    config: DsmConfig
    races: List[RaceReport]
    detector_stats: Optional[DetectorStats]
    traffic: TrafficStats
    ledgers: List[CostLedger]
    runtime_cycles: float
    results: List[Any]
    access_trace: AccessTrace
    #: Every counter of the run under one dotted name (``CVM._collect``):
    #: ``<layer>.<field>`` of the stats objects below and of the
    #: protocol, sync, interval, scheduler and replay layers, renamed
    #: where :data:`METRIC_RENAMES` says.  Online runs all carry the same
    #: keys; the two-phase modes add their own ``replay.trace`` counters.
    metrics: Dict[str, float]
    #: Per-lock (acquires, contended) counters.
    lock_stats: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: Crash/recovery counters (all zero when crashes are disabled).
    crash_stats: CrashStats = field(default_factory=CrashStats)
    #: ``verdict="unverifiable"`` entries: concurrent overlapping pairs
    #: whose race check could not run because a crash destroyed one side's
    #: word bitmaps (recovery without a checkpoint).  Kept apart from
    #: ``races`` so race artifacts stay comparable across runs.
    unverifiable: List[RaceReport] = field(default_factory=list)
    #: Master-failover counters (elections held, detection-state bytes
    #: migrated, interval records re-solicited); all zero with failover
    #: off, and on any run whose coordinator never crashes.
    failover_stats: FailoverStats = field(default_factory=FailoverStats)
    #: Sharded-detection protocol counters (shards dispatched, records
    #: shipped, scatter/reduce traffic, fallbacks); all zero with sharding
    #: off.  Detection verdicts and ``detector_stats`` are byte-identical
    #: to the centralized engine's either way.
    sharding_stats: ShardingStats = field(default_factory=ShardingStats)

    # The counters ``benchmarks/spine`` reads by name.
    shared_instr_calls = _metric("dsm.env.words")
    intervals_created = _metric("dsm.interval.created")
    barriers_completed = _metric("dsm.sync.barriers")
    lock_acquires = _metric("dsm.sync.lock_acquires")

    @property
    def protocol_stats(self) -> Dict[str, int]:
        return {name[len("dsm.protocol."):]: value
                for name, value in self.metrics.items()
                if name.startswith("dsm.protocol.")}

    @property
    def record_stats(self) -> Optional[Dict[str, int]]:
        """The two-phase pipeline's counters under ``lock_order.stats()``'s
        keys; ``None`` in online mode."""
        keys = _RECORD_STATS.get(self.config.mode)
        return None if keys is None else {
            key: self.metrics[metric_name("replay.trace", key)]
            for key in keys}

    @property
    def runtime_seconds(self) -> float:
        return self.config.cost_model.seconds(self.runtime_cycles)

    @property
    def intervals_per_barrier(self) -> float:
        """Average interval structures created per process per barrier
        epoch (Table 1's "Intervals Per Barrier")."""
        denom = self.barriers_completed * self.config.nprocs
        if denom == 0:
            return float(self.intervals_created)
        return self.intervals_created / denom

    def aggregate_ledger(self) -> CostLedger:
        total = CostLedger()
        for ledger in self.ledgers:
            total.merge(ledger)
        return total

    def overhead_breakdown(self) -> Dict[str, float]:
        """System-wide per-category overhead relative to base time
        (Figure 3's bars)."""
        return self.aggregate_ledger().breakdown()


class CVM:
    """A configured DSM system, ready to run one SPMD application."""

    def __init__(self, config: DsmConfig):
        if config.track_access_trace:
            check_capacity(config.nprocs, config.segment_words)
        self.config = config
        self.scheduler = Scheduler(
            policy=make_policy(config.policy, config.seed),
            deadline_seconds=config.deadline_seconds)
        # What a collaborator that must reach back into the system holds:
        # a strong reference would make every run one reference cycle.
        facade = weakref.proxy(self)
        self.sizer = WireSizer(config.nprocs, config.page_size_words)
        self.transport = Transport(config.cost_model)
        # With faults configured, all protocol traffic goes through the
        # reliable channel (fragmentation, ack/retransmit, duplicate
        # suppression); with faults off — the default — the bare transport
        # stays in the path so every ledger and stat is byte-identical to
        # a build without the robustness layer.
        plan = config.effective_fault_plan()
        if plan is not None:
            self.net = ReliableChannel(
                self.transport, plan, retry_budget=config.retry_budget)
        else:
            self.net = self.transport
        self.segment = SharedSegment(config.segment_words,
                                     config.page_size_words)
        self.directory = PageDirectory(config.num_pages, config.nprocs)
        self.store = IntervalStore()
        self.store.log_vcs = config.track_access_trace
        self.nodes: List[Node] = []
        self.protocol = make_protocol(config.protocol, self)
        self.access_trace = AccessTrace()
        # The barrier-master responsibilities — barrier release, the
        # epoch's detection pass, the detector instance — are owned by the
        # coordinator role, initially held by P0 as in the paper; only
        # ``--master-failover`` ever moves it.
        factory = partial(make_detector, facade)
        self.coordinator = CoordinatorRole(
            config.nprocs, failover=config.master_failover,
            detector=factory(0), detector_factory=factory,
            initial_pid=0, system=facade)
        # Crash tolerance.  With no crash plan — the default — the
        # injector is None, every crash point is a cheap no-op, and all
        # artifacts are byte-identical to a build without this layer.
        cplan = config.effective_crash_plan()
        self._crasher = CrashInjector(cplan) if cplan is not None else None
        #: Counters of the crash, recovery and checkpoint layers.
        self.crash_stats = CrashStats()
        self.recovery = Recovery(facade)
        #: The crash point of the access layer (``Env``'s hook tail).
        self._maybe_crash = self.recovery.maybe_crash
        self.sync = Synchronizer(facade)
        # The synchronization operations, under the names ``Env.lock`` and
        # friends look up here at every call (so a tracer may rebind them).
        self.lock_acquire = self.sync.lock_acquire
        self.lock_release = self.sync.lock_release
        self.event_set = self.sync.event_set
        self.event_wait = self.sync.event_wait
        self.barrier = self.sync.barrier
        #: Cross-run resume point (``--resume-from``), else ``None``.
        self.resume: Optional[ResumePoint] = (
            ResumePoint(config.resume_from, config.nprocs)
            if config.resume_from is not None else None)
        #: Optional replay controller (see :mod:`repro.replay`): records or
        #: enforces the order in which contended locks are granted — and,
        #: attached by the two-phase modes, the whole trace pipeline.
        self.lock_order = None
        if config.mode in TWO_PHASE_MODES:
            # Deferred: repro.replay's package init pulls in the
            # attribution pipeline, which imports this module.
            from repro.replay.trace import attach
            self.lock_order = attach(self)
        #: Optional program-counter watch (§6.1 second run): maps word
        #: address -> list that collects (pid, interval, site, is_write).
        self.pc_watch: Optional[Dict[int, List[Tuple]]] = None
        # Created last: with a persistent directory the manager takes an
        # exclusive advisory lock on it (two live runs sharing one
        # --checkpoint-dir would interleave ckpt logs and corrupt both
        # recoveries), and nothing above must be able to fail while the
        # lock is held.  Released in run()'s finally clause.
        self.checkpoints: Optional[CheckpointManager] = None
        if config.checkpointing_enabled:
            self.checkpoints = CheckpointManager(config.checkpoint_dir,
                                                 config.nprocs)
        self._ran = False

    @property
    def detector(self) -> Optional[RaceDetector]:
        """The race detector, owned by the coordinator role (it migrates
        with the role on failover)."""
        return self.coordinator.detector

    def run(self, app: Callable[..., Any], *args: Any) -> RunResult:
        """Run ``app(env, *args)`` on every simulated process (SPMD) and
        return the collected result.  A final barrier is inserted after the
        application returns so the last epoch is always race-checked."""
        if self._ran:
            raise SynchronizationError("a CVM instance runs one application once")
        self._ran = True
        two_phase = self.config.mode in TWO_PHASE_MODES
        try:
            if two_phase:
                self.lock_order.begin_run(getattr(app, "__name__", repr(app)))
            for pid in range(self.config.nprocs):
                proc = self.scheduler.spawn(self._proc_main, app, pid, args)
                self.nodes.append(Node(pid, self.config, proc.clock, self.store))
            if self.coordinator.failover:
                # Initial journal append (the analogue of the generation-0
                # node checkpoints): nothing is committed yet, so a
                # coordinator death before the first barrier installs an
                # empty log.
                self.coordinator.journal_state(
                    self.nodes[self.coordinator.pid].clock,
                    self.config.cost_model)
            for node in self.nodes:
                barrier_cut(self, node, generation=0)
            self.scheduler.run()
            if self.resume is not None:
                self.resume.check_reached(self.sync.barrier_state.generation)
            if two_phase:
                self.lock_order.end_run()
            return self._collect()
        finally:
            # Release the checkpoint directory's exclusive lock so a later
            # run (same process or not) can legitimately reuse it.
            if self.checkpoints is not None:
                self.checkpoints.close()

    def _proc_main(self, app: Callable[..., Any], pid: int, args: tuple) -> Any:
        env = Env(self, pid)
        result = app(env, *args)
        self.barrier(pid)  # final flush: close and check the last epoch
        return result

    def _collect(self) -> RunResult:
        clocks, nodes = self.scheduler.clocks(), self.nodes
        locks = self.sync.locks
        detector = self.detector
        traffic = self.transport.stats
        recorded = (self.lock_order.stats()
                    if self.config.mode in TWO_PHASE_MODES else {})
        layers = {
            "sim.scheduler": {
                "switches": self.scheduler.switches,
                "yields": sum(p.yields
                              for p in self.scheduler.processes.values())},
            "dsm.env": {
                "words": sum(n.shared_instr_calls for n in nodes),
                "private_words": sum(n.private_instr_calls for n in nodes)},
            "dsm.segment": {
                "high_water_kbytes": self.segment.high_water_kbytes},
            "dsm.protocol": self.protocol.stats(),
            "dsm.sync": {
                "lock_acquires": sum(s.acquires for s in locks.values()),
                "contended_acquires": sum(s.contended for s in locks.values()),
                "barriers": self.sync.barrier_state.generation},
            "dsm.interval": {"created": self.store.total_created},
            "net.transport": {"messages": traffic.total_messages,
                              "bytes": traffic.total_bytes,
                              **int_fields(traffic)},
            "core.detector": {
                **int_fields(detector.stats if detector else DetectorStats()),
                "probes": detector.actual_comparisons if detector else 0},
            "sim.crash": int_fields(self.crash_stats),
            "dsm.failover": int_fields(self.coordinator.stats),
            "dsm.sharding": int_fields(self.coordinator.sharding_stats),
            "replay.trace": {"entries_recorded": 0, "trace_bytes": 0,
                             **recorded},
        }
        return RunResult(
            config=self.config,
            races=list(detector.races) if detector else [],
            detector_stats=detector.stats if detector else None,
            traffic=traffic,
            ledgers=[c.ledger for c in clocks],
            runtime_cycles=max(c.now for c in clocks),
            results=self.scheduler.results(),
            access_trace=self.access_trace,
            metrics={metric_name(layer, key): value
                     for layer, counters in layers.items()
                     for key, value in counters.items()},
            lock_stats={lid: (st.acquires, st.contended)
                        for lid, st in sorted(locks.items())},
            crash_stats=self.crash_stats,
            unverifiable=list(detector.unverifiable) if detector else [],
            failover_stats=self.coordinator.stats,
            sharding_stats=self.coordinator.sharding_stats,
        )
