"""The CVM system facade: wiring, ``run()`` and the collected result.

:class:`CVM` wires together the deterministic scheduler, the simulated
transport, the shared segment, the coherence protocol, the synchronization
operations, the coordinator role with (when enabled) the race detector,
and crash recovery, then runs an SPMD application function on every
simulated process, each behind its own :class:`~repro.dsm.env.Env`.
Every collaborator takes the system as its back-reference, the way
:class:`~repro.dsm.protocol.Protocol` does, and reaches the others
through it; none imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.baseline.trace import TraceEvent
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
    intervals_created: int
    barriers_completed: int
    lock_acquires: int
    shared_instr_calls: int
    private_instr_calls: int
    memory_kbytes: float
    access_trace: List[TraceEvent]
    #: Protocol-level diagnostics (faults, invalidations, transfers...).
    protocol_stats: Dict[str, int] = field(default_factory=dict)
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
    #: Two-phase pipeline counters: a ``--mode record`` run reports the
    #: entries captured per stream and the flushed trace bytes; a
    #: ``--mode detect-offline`` run reports the entries replayed and
    #: verified.  ``None`` in online mode.
    record_stats: Optional[Dict[str, int]] = None

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

    def shared_access_rate(self) -> float:
        """Instrumented shared accesses per virtual second (Table 3)."""
        secs = self.runtime_seconds
        return self.shared_instr_calls / secs if secs > 0 else 0.0

    def private_access_rate(self) -> float:
        """Instrumented private accesses per virtual second (Table 3)."""
        secs = self.runtime_seconds
        return self.private_instr_calls / secs if secs > 0 else 0.0


class CVM:
    """A configured DSM system, ready to run one SPMD application."""

    def __init__(self, config: DsmConfig):
        self.config = config
        self.scheduler = Scheduler(
            policy=make_policy(config.policy, config.seed),
            deadline_seconds=config.deadline_seconds)
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
        self.protocol = make_protocol(config.protocol, self)
        self.nodes: List[Node] = []
        self.access_trace: List[TraceEvent] = []
        # The barrier-master responsibilities — barrier release, the
        # epoch's detection pass, the detector instance — are owned by the
        # coordinator role, initially held by P0 as in the paper; only
        # ``--master-failover`` ever moves it.
        factory = partial(make_detector, self)
        self.coordinator = CoordinatorRole(
            config.nprocs, failover=config.master_failover,
            detector=factory(0), detector_factory=factory,
            initial_pid=0, system=self)
        # Crash tolerance.  With no crash plan — the default — the
        # injector is None, every crash point is a cheap no-op, and all
        # artifacts are byte-identical to a build without this layer.
        cplan = config.effective_crash_plan()
        self._crasher = CrashInjector(cplan) if cplan is not None else None
        #: Counters of the crash, recovery and checkpoint layers.
        self.crash_stats = CrashStats()
        self.recovery = Recovery(self)
        #: The crash point of the access layer (``Env``'s hook tail).
        self._maybe_crash = self.recovery.maybe_crash
        self.sync = Synchronizer(self)
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
        # --checkpoint-dir would interleave ckpt files and corrupt both
        # recoveries), and nothing above must be able to fail while the
        # lock is held.  Released in run()'s finally clause.
        self.checkpoints: Optional[CheckpointManager] = None
        if config.checkpointing_enabled:
            self.checkpoints = CheckpointManager(config.checkpoint_dir,
                                                 delta=config.checkpoint_delta)
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
        clocks = self.scheduler.clocks()
        locks = self.sync.locks
        return RunResult(
            config=self.config,
            races=list(self.detector.races) if self.detector else [],
            detector_stats=self.detector.stats if self.detector else None,
            traffic=self.transport.stats,
            ledgers=[c.ledger for c in clocks],
            runtime_cycles=max(c.now for c in clocks),
            results=self.scheduler.results(),
            intervals_created=self.store.total_created,
            barriers_completed=self.sync.barrier_state.generation,
            lock_acquires=sum(s.acquires for s in locks.values()),
            shared_instr_calls=sum(n.shared_instr_calls for n in self.nodes),
            private_instr_calls=sum(n.private_instr_calls for n in self.nodes),
            memory_kbytes=self.segment.high_water_kbytes,
            access_trace=self.access_trace,
            protocol_stats=self.protocol.stats(),
            lock_stats={lid: (st.acquires, st.contended)
                        for lid, st in sorted(locks.items())},
            crash_stats=self.crash_stats,
            unverifiable=(list(self.detector.unverifiable)
                          if self.detector else []),
            failover_stats=self.coordinator.stats,
            sharding_stats=self.coordinator.sharding_stats,
            record_stats=(self.lock_order.stats()
                          if self.config.mode in TWO_PHASE_MODES else None),
        )
