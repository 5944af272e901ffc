"""The CVM system facade and the per-process application environment.

:class:`CVM` wires together the deterministic scheduler, the simulated
transport, the shared segment, the coherence protocol, the synchronization
managers and (when enabled) the race detector, then runs an SPMD application
function on every simulated process.  :class:`Env` is the handle the
application code receives: it exposes the DSM API (``malloc``/``load``/
``store``/``lock``/``unlock``/``barrier``) and *is* the analogue of the
paper's instrumentation analysis routine — every shared access that flows
through it is classified, counted, bitmap-tracked and charged to the
virtual clock under the proper overhead category.

The synchronization operations implement lazy release consistency exactly
as §3.1 describes: every acquire and release opens a new interval; lock
grants and barrier messages piggyback the interval records (write notices,
and with detection on, read notices) that the receiver has not yet seen;
write notices invalidate stale page copies at the acquirer.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.baseline.trace import TraceEvent
from repro.core.detector import DetectorStats, RaceDetector
from repro.core.report import RaceReport
from repro.dsm.checkpoint import (CheckpointManager, restore_node,
                                  snapshot_node)
from repro.dsm.config import DsmConfig
from repro.dsm.coordinator import (CoordinatorRole, FailoverStats,
                                   ShardingStats, elect_coordinator)
from repro.dsm.interval import Interval
from repro.dsm.memory import Allocation, SharedSegment
from repro.dsm.node import IntervalStore, Node
from repro.dsm.page import PageDirectory, PageState
from repro.dsm.protocol import make_protocol
from repro.dsm.sync import (BarrierState, EventState, GrantInfo,
                            LockState)
from repro.dsm.vector_clock import VectorClock, precedes
from repro.errors import (AllocationError, CheckpointError, ConfigError,
                          NodeCrashed, ReplayError, RetryExhaustedError,
                          SegmentationFault, SynchronizationError)
from repro.net.message import WireSizer
from repro.net.reliable import ReliableChannel
from repro.net.stats import TrafficStats
from repro.net.transport import Transport
from repro.sim.costmodel import CostCategory, CostLedger
from repro.sim.crash import (DEFAULT_CRASH_DETECT_TIMEOUT, CrashInjector,
                             CrashRecord, CrashStats)
from repro.sim.policy import make_policy
from repro.sim.scheduler import Scheduler

#: Yield to the scheduler after this many shared accesses, so that long
#: computation phases cannot starve other simulated processes.
YIELD_EVERY = 512

#: Ledger slots the access engine charges; page states its warm test names.
_BASE = CostCategory.BASE.slot
_PROC_CALL = CostCategory.PROC_CALL.slot
_ACCESS_CHECK = CostCategory.ACCESS_CHECK.slot
_INVALID, _WRITABLE = PageState.INVALID, PageState.WRITABLE


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
        self.transport = Transport(config.cost_model,
                                   max_datagram=config.max_datagram)
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
        self.locks: Dict[int, LockState] = {}
        self.events: Dict[int, EventState] = {}
        self.barrier_state = BarrierState(config.nprocs, master=0,
                                          failover=config.master_failover)
        self.epoch = 0
        self.access_trace: List[TraceEvent] = []
        # The barrier-master responsibilities — barrier release, interval
        # collection, the detector instance — are owned by the coordinator
        # role, initially held by P0 as in the paper.  With failover off
        # the role never moves and every ``role.pid`` comparison below is
        # the old ``pid == 0`` check; with ``--master-failover`` the role
        # migrates to the lowest live pid when its holder crashes.
        self.coordinator = CoordinatorRole(
            config.nprocs, failover=config.master_failover,
            detector=self._make_detector(0),
            detector_factory=self._make_detector,
            initial_pid=0)
        # Crash tolerance.  With no crash plan — the default — the
        # injector is None, every hook below is a cheap no-op, and all
        # artifacts are byte-identical to a build without this layer.
        cplan = config.effective_crash_plan()
        self._crasher = CrashInjector(cplan) if cplan is not None else None
        self.crash_stats = CrashStats()
        self.sharding_stats = ShardingStats()
        # Two-level detection filter: when on (and detecting), every
        # consistency payload also carries the coarse access digests the
        # filter consults, priced by _charge_digests at each ship site.
        self._coarse = config.detection and config.coarse_filter
        self.checkpoints: Optional[CheckpointManager] = None
        # Cross-run resume (--resume-from): re-execute deterministically
        # and, at the barrier generation the directory covers for every
        # node, validate and reinstall each node's state from the restored
        # snapshots.  The resumed run must use the same configuration the
        # checkpoints were written under (checkpointing stays enabled so
        # the virtual-time write charges line up).
        self._resume_mgr: Optional[CheckpointManager] = None
        self._resume_gen = -1
        self.resumed_nodes = 0
        if config.resume_from is not None:
            mgr = CheckpointManager.load_dir(config.resume_from)
            pids = sorted(s.pid for s in mgr.snapshots())
            if pids != list(range(config.nprocs)):
                raise CheckpointError(
                    f"checkpoint directory {config.resume_from!r} covers "
                    f"pids {pids}, but the run has nprocs={config.nprocs}")
            gen = min(s.generation for s in mgr.snapshots())
            for pid in pids:
                if not mgr.has_generation(pid, gen):
                    raise CheckpointError(
                        f"checkpoint directory {config.resume_from!r} has "
                        f"no consistent cut: P{pid} lacks generation {gen}")
            self._resume_mgr = mgr
            self._resume_gen = gen
        #: Optional replay controller (see :mod:`repro.replay`): records or
        #: enforces the order in which contended locks are granted.
        self.lock_order = None
        #: Optional program-counter watch (§6.1 second run): maps word
        #: address -> list that collects (pid, interval, site, is_write).
        self.pc_watch: Optional[Dict[int, List[Tuple]]] = None
        # Two-phase pipeline (--mode record / --mode detect-offline).
        # Record: a SyncTraceRecorder doubles as the lock-order controller
        # and receives the barrier-arrival and message-delivery hooks; the
        # trace is flushed (and its bytes priced under RECORD) at the end
        # of run().  Detect-offline: the trace file is loaded and frame-
        # checked here so corrupt files fail before any work; the config-
        # digest check against the app happens in run(), where the app
        # name is known.  The hooks are installed on ``self.net`` — the
        # reliable channel when faults are configured — so a lossy record
        # run captures *post-retransmit* delivery order and the bare
        # transport's per-fragment sends never fire them.  Imports are
        # deferred: repro.replay's package init pulls in the attribution
        # pipeline, which imports this module.
        self.trace_recorder = None
        self.trace_enforcer = None
        self.trace_bytes = 0
        if config.mode == "record":
            from repro.replay.trace import SyncTraceRecorder
            self.trace_recorder = SyncTraceRecorder()
            self.lock_order = self.trace_recorder
            self.barrier_state.order_hook = self._record_arrival
            self.net.delivery_hook = self._record_delivery
        elif config.mode == "detect-offline":
            from repro.replay.trace import SyncTraceEnforcer, load_trace
            enforcer = SyncTraceEnforcer(load_trace(config.trace_file))
            self.trace_enforcer = enforcer
            self.lock_order = enforcer
            self.barrier_state.order_hook = enforcer.on_barrier_arrival
            self.net.delivery_hook = enforcer.on_delivery
        # Created last: with a persistent directory the manager takes an
        # exclusive advisory lock on it (two live runs sharing one
        # --checkpoint-dir would interleave ckpt files and corrupt both
        # recoveries), and nothing above must be able to fail while the
        # lock is held.  Released in run()'s finally clause.
        if config.checkpointing_enabled:
            self.checkpoints = CheckpointManager(config.checkpoint_dir,
                                                 delta=config.checkpoint_delta)
        self._ran = False

    def _make_detector(self, master_pid: int) -> Optional[RaceDetector]:
        """Detector factory for the coordinator role: the initial instance
        at construction, and replacement instances (re-homed on the
        election winner) during failover.  ``None`` with detection off."""
        config = self.config
        if not config.detection:
            return None
        return RaceDetector(
            config.page_size_words, config.cost_model, self.sizer,
            self.net, self.segment.symbol_for, master_pid=master_pid,
            first_races_only=config.first_races_only,
            fast_path=config.detector_fast_path,
            coarse_filter=config.coarse_filter)

    @property
    def detector(self) -> Optional[RaceDetector]:
        """The race detector, owned by the coordinator role (it migrates
        with the role on failover)."""
        return self.coordinator.detector

    # ------------------------------------------------------------------ #
    # Running applications.
    # ------------------------------------------------------------------ #
    def run(self, app: Callable[..., Any], *args: Any) -> RunResult:
        """Run ``app(env, *args)`` on every simulated process (SPMD) and
        return the collected result.  A final barrier is inserted after the
        application returns so the last epoch is always race-checked."""
        if self._ran:
            raise SynchronizationError("a CVM instance runs one application once")
        self._ran = True
        try:
            app_name = getattr(app, "__name__", repr(app))
            if self.trace_enforcer is not None:
                self._verify_trace_header(app_name)
            for pid in range(self.config.nprocs):
                proc = self.scheduler.spawn(self._proc_main, app, pid, args)
                self.nodes.append(Node(pid, self.config, proc.clock, self.store))
            if self.coordinator.failover:
                # Initial role journal (the analogue of the generation-0 node
                # checkpoints): a coordinator death before the first barrier
                # migrates the pre-application detector state.
                self.coordinator.journal_state(
                    self.nodes[self.coordinator.pid].clock,
                    self.config.cost_model)
            if self._resume_mgr is not None and self._resume_gen == 0:
                # Resuming at the pre-application cut: install before the
                # generation-0 checkpoints re-record the (identical) state.
                for node in self.nodes:
                    self._install_resume(node)
            if self.checkpoints is not None:
                # Initial checkpoints (barrier generation 0): every node can
                # be recovered even if it dies before the first barrier.
                for node in self.nodes:
                    self._take_checkpoint(node, generation=0)
            self.scheduler.run()
            if self.trace_recorder is not None:
                self._flush_trace(app_name)
            elif self.trace_enforcer is not None:
                # A replay that finished without consuming the whole trace
                # means the executions disagree — fail, don't under-report.
                self.trace_enforcer.check_fully_consumed()
            return self._collect()
        finally:
            # Release the checkpoint directory's exclusive lock so a later
            # run (same process or not) can legitimately reuse it.
            if self.checkpoints is not None:
                self.checkpoints.close()

    # ------------------------------------------------------------------ #
    # Two-phase pipeline plumbing (--mode record / --mode detect-offline).
    # ------------------------------------------------------------------ #
    def _charge_record(self, node: Node) -> None:
        """One captured synchronization-order entry, on the acting pid's
        clock — the record run's only per-event online cost."""
        node.clock.advance(self.config.cost_model.record_entry,
                           CostCategory.RECORD)

    def _record_arrival(self, generation: int, pid: int) -> None:
        self._charge_record(self.nodes[pid])
        self.trace_recorder.on_barrier_arrival(generation, pid)

    def _record_delivery(self, tag: str, src: int, dst: int) -> None:
        from repro.replay.trace import SYNC_TAGS
        if tag not in SYNC_TAGS:
            return
        self._charge_record(self.nodes[src])
        self.trace_recorder.on_delivery(tag, src, dst)

    def _verify_trace_header(self, app_name: str) -> None:
        """Refuse to replay a trace recorded under a different execution
        configuration: the config digest pins every execution-shaping
        field (app, nprocs, seed, policy, network-fault schedule...), so
        a mismatch means the trace would steer a different program."""
        from repro.replay.trace import execution_digest
        trace = self.trace_enforcer.trace
        digest = execution_digest(self.config, app_name)
        if digest != trace.digest:
            raise ConfigError(
                "--mode detect-offline: the trace (--trace-file) was "
                "recorded under a different execution configuration: "
                f"recorded app={trace.app!r} nprocs={trace.nprocs} "
                f"seed={trace.seed} policy={trace.policy!r} "
                f"fault_seed={trace.fault_seed}; this run has "
                f"app={app_name!r} nprocs={self.config.nprocs} "
                f"seed={self.config.seed} policy={self.config.policy!r} "
                f"fault_seed={self.config.fault_seed} (config digest "
                f"{trace.digest} != {digest}); re-record with --mode "
                "record under this configuration or fix the flags")

    def _flush_trace(self, app_name: str) -> None:
        """End-of-run trace flush: finalize the header, frame and persist
        the file, and price the serialization on the coordinator's clock
        (it owns the run's durable artifacts, like the role journal)."""
        from repro.replay.trace import execution_digest, write_trace
        digest = execution_digest(self.config, app_name)
        trace = self.trace_recorder.build(app_name, self.config, digest)
        self.trace_bytes = write_trace(trace, self.config.trace_file)
        self.nodes[self.coordinator.pid].clock.advance(
            self.config.cost_model.record_flush_per_byte * self.trace_bytes,
            CostCategory.RECORD)

    def _two_phase_stats(self) -> Optional[Dict[str, int]]:
        if self.trace_recorder is not None:
            t = self.trace_recorder.trace
            return {"entries_recorded": self.trace_recorder.entries_recorded,
                    "lock_grants": t.total_grants,
                    "barrier_arrivals": t.total_arrivals,
                    "deliveries": len(t.deliveries),
                    "trace_bytes": self.trace_bytes}
        if self.trace_enforcer is not None:
            e = self.trace_enforcer
            return {"grants_replayed": e.grants_replayed,
                    "arrivals_verified": e.arrivals_verified,
                    "deliveries_verified": e.deliveries_verified}
        return None

    def _proc_main(self, app: Callable[..., Any], pid: int, args: tuple) -> Any:
        env = Env(self, pid)
        result = app(env, *args)
        self.barrier(pid)  # final flush: close and check the last epoch
        return result

    def _collect(self) -> RunResult:
        clocks = self.scheduler.clocks()
        return RunResult(
            config=self.config,
            races=list(self.detector.races) if self.detector else [],
            detector_stats=self.detector.stats if self.detector else None,
            traffic=self.transport.stats,
            ledgers=[c.ledger for c in clocks],
            runtime_cycles=max(c.now for c in clocks),
            results=self.scheduler.results(),
            intervals_created=self.store.total_created,
            barriers_completed=self.barrier_state.barriers_completed,
            lock_acquires=sum(s.acquires for s in self.locks.values()),
            shared_instr_calls=sum(n.shared_instr_calls for n in self.nodes),
            private_instr_calls=sum(n.private_instr_calls for n in self.nodes),
            memory_kbytes=self.segment.high_water_kbytes,
            access_trace=self.access_trace,
            protocol_stats=self.protocol.stats(),
            lock_stats={lid: (st.acquires, st.contended)
                        for lid, st in sorted(self.locks.items())},
            crash_stats=self.crash_stats,
            unverifiable=(list(self.detector.unverifiable)
                          if self.detector else []),
            failover_stats=self.coordinator.stats,
            sharding_stats=self.sharding_stats,
            record_stats=self._two_phase_stats(),
        )

    # ------------------------------------------------------------------ #
    # Crash injection, recovery and checkpoints.
    #
    # The simulation models crashes *by accounting*: the deterministic
    # scheduler guarantees that re-executing a node from its last
    # barrier-consistent state reproduces exactly the same computation, so
    # a recovered run's Python state needs no rewinding — a crash costs
    # virtual time (restart + state restoration + re-execution debt),
    # recovery traffic, and, when checkpointing is off, the node's
    # current-epoch detection metadata (its word bitmaps never leave the
    # node until the bitmap round, so they die with it; the page-level
    # notices survive on already-sent synchronization messages).  With
    # ``crash_recovery=False`` the crash is fail-stop instead: the
    # simulated process unwinds with :class:`NodeCrashed` and the
    # survivors' next barrier deadlocks.
    # ------------------------------------------------------------------ #
    def _maybe_crash(self, pid: int, kind: str,
                     generation: Optional[int] = None) -> None:
        """Evaluate one potential crash point for ``pid``.  No-op without a
        crash plan; one crash per node per epoch (a node with a pending
        unrecovered crash is immune until its next barrier)."""
        if self._crasher is None:
            return
        node = self.nodes[pid]
        if node.crashed is not None:
            self.crash_stats.pending_crash_skips += 1
            return
        doomed = (generation is not None
                  and self._crasher.scheduled_at(pid, generation))
        if not doomed:
            doomed = self._crasher.decide(pid, kind)
        if not doomed:
            return
        role = self.coordinator
        if pid == role.pid and (not role.failover or self.config.nprocs < 2):
            # Without failover the coordinator runs the detector and the
            # recovery protocol and cannot crash; with nprocs=1 there is
            # no possible successor either way.  Count the suppression so
            # rate sweeps can report how often immunity mattered.
            self.crash_stats.master_crashes_suppressed += 1
            return
        self._crash_node(node, kind)

    def _crash_node(self, node: Node, kind: str) -> None:
        node.crashed = CrashRecord(kind=kind, time=node.clock.now,
                                   epoch=node.epoch)
        self.crash_stats.record_crash(kind)
        if not self.config.crash_recovery:
            raise NodeCrashed(node.pid, kind, node.clock.now)

    def _charge_node_recovery(self, node: Node) -> None:
        """Recovery accounting, run at the crashed node's next barrier
        arrival (all charges under ``CostCategory.RECOVERY``, which stays
        out of the overhead breakdown).

        With checkpointing: restore the latest snapshot (restore cost
        proportional to its serialized size) and re-execute from the
        checkpoint cut — determinism regenerates the post-checkpoint
        metadata exactly, so nothing is lost.  Without: refetch every valid
        page copy from its manager over ``self.net`` — the reliable
        channel when faults are enabled, so recovery traffic survives a
        lossy network too — re-execute the whole epoch, and mark the
        node's current-epoch intervals *lost* — their bitmaps are
        unrecoverable and the detector degrades those checks to explicit
        unverifiable reports.
        """
        rec = node.crashed
        clock = node.clock
        cm = self.config.cost_model
        clock.advance(cm.crash_restart, CostCategory.RECOVERY)
        if self.checkpoints is not None:
            snap = self.checkpoints.latest(node.pid)
            nbytes = snap.nbytes if snap is not None else 0
            clock.advance(cm.checkpoint_restore_per_byte * nbytes,
                          CostCategory.RECOVERY)
            restart_point = node.last_checkpoint_time
            self.crash_stats.recoveries_from_checkpoint += 1
        else:
            for page_id in sorted(node.pages):
                copy = node.pages[page_id]
                if not copy.valid:
                    continue
                src = self.directory.manager_of(page_id)
                if src == node.pid:
                    continue
                msg = self.net.send(
                    "recovery_page", src, node.pid, None,
                    self.sizer.ints(2) + self.sizer.page_data(), clock,
                    category=CostCategory.RECOVERY, fragmentable=True)
                clock.wait_until(msg.arrival_time)
            table = self.store.by_pid().get(node.pid, {})
            for stored in table.values():
                if stored.epoch == node.epoch and not stored.lost:
                    stored.lost = True
                    self.crash_stats.intervals_lost += 1
            if not node.current.lost:
                node.current.lost = True
                self.crash_stats.intervals_lost += 1
            restart_point = node.epoch_start_time
            self.crash_stats.recoveries_without_checkpoint += 1
        # Re-execution debt: the work between the restart point and the
        # crash is done twice; the second pass is recovery overhead.
        clock.advance(max(0.0, rec.time - restart_point),
                      CostCategory.RECOVERY)

    def _install_resume(self, node: Node) -> None:
        """Validate and install one node's restored snapshot at the resume
        cut.

        Deterministic re-execution has brought the node to exactly the
        state the checkpoint captured, so the freshly-computed snapshot
        must equal the stored one byte for byte — anything else means the
        directory came from a different app/params/flags and resuming
        would silently diverge.  The restored (deserialized) objects are
        then actually installed, so the remainder of the run exercises the
        restore path end to end."""
        snap = self._resume_mgr.at_generation(node.pid, self._resume_gen)
        current = snapshot_node(node, self.store, self._resume_gen,
                                coordinator=self._coordinator_section(node.pid))
        if current != snap:
            raise CheckpointError(
                f"resume state diverged for P{node.pid} at generation "
                f"{self._resume_gen}: the checkpoint directory was not "
                "produced by an equivalent run (same application, "
                "parameters, process count and flags)")
        restore_node(snap, node, self.store)
        self.resumed_nodes += 1

    def _coordinator_section(self, pid: int) -> Optional[Dict[str, Any]]:
        """Coordinator section for ``pid``'s snapshot: present only under
        failover (so failover-off checkpoints stay byte-identical to
        builds without the coordinator subsystem)."""
        if not self.coordinator.failover:
            return None
        return self.coordinator.snapshot_section(pid)

    def _take_checkpoint(self, node: Node, generation: int) -> None:
        snap = self.checkpoints.take(
            node, self.store, generation,
            coordinator=self._coordinator_section(node.pid))
        node.clock.advance(
            self.config.cost_model.checkpoint_write_per_byte * snap.nbytes,
            CostCategory.RECOVERY)
        node.last_checkpoint_time = node.clock.now
        self.crash_stats.checkpoints_written += 1
        self.crash_stats.checkpoint_bytes += snap.nbytes

    # ------------------------------------------------------------------ #
    # Interval helpers.
    # ------------------------------------------------------------------ #
    def _close_interval(self, node: Node) -> Interval:
        closed = node.close_interval()
        self.protocol.on_interval_closed(node, closed)
        return closed

    def _record_bytes(self, recs: Iterable[Interval]) -> Tuple[int, int, int]:
        """Summed wire figures of ``recs``: (record bytes, read-notice
        bytes, coarse-digest bytes), each closed record priced once (see
        :meth:`Interval.wire_figures`).  The last two are 0 with
        detection, respectively the two-level filter, off."""
        sizer, with_reads, coarse = (self.sizer, self.config.detection,
                                     self._coarse)
        body = read_bytes = digest_bytes = 0
        for rec in recs:
            b, r, d = rec.wire_figures(sizer, with_reads, coarse)
            body += b
            read_bytes += r
            digest_bytes += d
        return body, read_bytes, digest_bytes

    def _consistency_payload(
            self, have: VectorClock, upto: Optional[VectorClock],
            pids: Optional[Iterable[int]] = None,
    ) -> Tuple[List[Interval], int, int, int]:
        """Interval records a process with clock ``have`` is missing up to
        horizon ``upto`` (none when ``upto`` is ``None``: a bare vector
        clock), of the owners ``pids`` only when given; returns (records,
        body bytes, read-notice bytes, coarse-digest bytes)."""
        recs = [] if upto is None else self.store.unseen(have, upto, pids)
        body, read_bytes, digest_bytes = self._record_bytes(recs)
        return recs, self.sizer.vector_clock() + body, read_bytes, digest_bytes

    def _charge_digests(self, nbytes: int, clock) -> None:
        """Two-level filter carriage: price the ``nbytes`` of coarse
        digests piggy-backed on a consistency payload's notice lists (one
        per write notice and, with detection, per read notice).  Charged
        in cycles on the shipping side under ``CostCategory.COARSE_FILTER``
        — message bodies are *not* inflated, so every filter-off wire
        figure (fragment counts, per-tag byte totals, Table 3's overhead
        fraction) is untouched.  ``nbytes`` is 0 unless detection and the
        filter are both on."""
        if nbytes:
            clock.advance(self.config.cost_model.cycles_per_byte * nbytes,
                          CostCategory.COARSE_FILTER)
            self.transport.stats.add_digest_bytes(nbytes)

    def _ship_consistency(self, have: VectorClock,
                          upto: Optional[VectorClock], clock,
                          send: Optional[Tuple[str, int, int]] = None):
        """Ship, on ``clock``, the interval records a process with clock
        ``have`` is missing up to ``upto`` (none when ``upto`` is ``None``:
        a bare vector clock) as one ``send = (tag, src, dst)`` message,
        and account their read notices and coarse digests.  Without
        ``send`` the records rode an earlier message and only the
        accounting is done.  Returns ``(records, message)``."""
        recs, body, read_bytes, digest_bytes = self._consistency_payload(
            have, upto)
        msg = None
        if send is not None:
            tag, src, dst = send
            msg = self.net.send(tag, src, dst, None, body, clock,
                                fragmentable=True)
        if read_bytes:
            self.transport.stats.add_read_notice_bytes(read_bytes)
        self._charge_digests(digest_bytes, clock)
        return recs, msg

    def _apply_consistency(self, node: Node, recs: List[Interval],
                           horizon: VectorClock) -> None:
        """Acquire-side application: invalidate per write notices, then
        merge the horizon clock."""
        for rec in recs:
            self.protocol.apply_write_notice(node, rec)
        node.vc.observe(horizon)

    # ------------------------------------------------------------------ #
    # Locks.
    # ------------------------------------------------------------------ #
    def _lock_state(self, lid: int) -> LockState:
        st = self.locks.get(lid)
        if st is None:
            st = self.locks[lid] = LockState(lid, lid % self.config.nprocs)
        return st

    def lock_acquire(self, pid: int, lid: int) -> None:
        node = self.nodes[pid]
        self.scheduler.yield_control(pid)
        if self._crasher is not None:
            self._maybe_crash(pid, "send")  # the lock-request send
        st = self._lock_state(lid)
        if self.lock_order is not None:
            # Replay enforcement gates only the free-lock fast path: when
            # the lock is held, the queue hand-off in ``_pick_next_waiter``
            # follows the recorded order instead.  A bounded spin converts
            # divergence (the recorded acquirer never shows up — possible
            # when a data race influenced synchronization control flow,
            # the §6.1 caveat about general races) into a clear error
            # instead of a livelock.
            spins = 0
            while (st.holder is None and not st.queue
                   and not self.lock_order.may_acquire(lid, pid)):
                spins += 1
                if not self.scheduler.others_ready(pid) or spins > 20_000:
                    raise ReplayError(
                        f"replay diverged: P{pid} must wait for "
                        f"P{self.lock_order.expected_next(lid)} to acquire "
                        f"lock {lid} first, but that grant never happens")
                self.scheduler.yield_control(pid)
        self._close_interval(node)
        if st.holder is None and not st.queue:
            st.holder = pid
            st.acquires += 1
            if self.lock_order is not None:
                self.lock_order.record_grant(lid, pid)
                if self.trace_recorder is not None:
                    self._charge_record(node)
            recs = self._charge_idle_lock_acquire(node, st)
            if st.last_release_vc is not None:
                self._apply_consistency(node, recs, st.last_release_vc)
        else:
            st.queue.append(pid)
            st.contended += 1
            self.scheduler.block(pid, f"lock {lid}")
            grant = st.grant_box.pop(pid)
            node.clock.wait_until(grant.arrival_time)
            self._apply_consistency(
                node, self.store.unseen(node.vc, grant.release_vc),
                grant.release_vc)
        node.open_interval(f"lock({lid}) acquire")

    def _charge_idle_lock_acquire(self, node: Node,
                                  st: LockState) -> List[Interval]:
        """Message accounting for acquiring an idle lock: request to the
        manager, forward to the last releaser, grant (with piggybacked
        consistency data) back to the requester.  Returns the interval
        records the grant carried, for the acquirer to apply."""
        sizer = self.sizer
        clock = node.clock
        granter = st.last_releaser if st.last_releaser is not None else st.manager
        if st.manager != node.pid:
            self.net.send("lock_request", node.pid, st.manager, None,
                                sizer.ints(3), clock)
        if granter not in (st.manager, node.pid):
            self.net.send("lock_forward", st.manager, granter, None,
                                sizer.ints(3) + sizer.vector_clock(), clock)
        if granter == node.pid:
            # Never released, or last released by this node, whose clock
            # has only grown since: no grant travels, nothing is missing.
            return []
        recs, msg = self._ship_consistency(
            node.vc, st.last_release_vc, clock,
            ("lock_grant", granter, node.pid))
        clock.wait_until(msg.arrival_time)
        return recs

    def lock_release(self, pid: int, lid: int) -> None:
        node = self.nodes[pid]
        if self._crasher is not None:
            self._maybe_crash(pid, "send")  # the grant/release send
        st = self._lock_state(lid)
        if st.holder != pid:
            raise SynchronizationError(
                f"P{pid} released lock {lid} held by {st.holder}")
        self._close_interval(node)
        st.last_releaser = pid
        st.last_release_vc = node.vc.copy()
        node.open_interval(f"lock({lid}) release")
        if st.queue:
            nxt = self._pick_next_waiter(st)
            st.holder = nxt
            st.acquires += 1
            if self.lock_order is not None:
                self.lock_order.record_grant(lid, nxt)
                if self.trace_recorder is not None:
                    self._charge_record(node)  # the releaser does the work
            _recs, msg = self._ship_consistency(
                self.nodes[nxt].vc, st.last_release_vc, node.clock,
                ("lock_grant", pid, nxt))
            st.grant_box[nxt] = GrantInfo(pid, st.last_release_vc,
                                          msg.arrival_time)
            self.scheduler.unblock(nxt)
        else:
            st.holder = None
        self._maybe_consolidate(node)
        self.scheduler.yield_control(pid)

    def _pick_next_waiter(self, st: LockState) -> int:
        """FIFO normally; under replay enforcement, the recorded acquirer
        (who must already be queued, else we fall back to FIFO and the
        controller flags the divergence at its next check)."""
        if self.lock_order is not None:
            expected = self.lock_order.expected_next(st.lid)
            if expected is not None and expected in st.queue:
                st.queue.remove(expected)
                return expected
        return st.queue.popleft()

    # ------------------------------------------------------------------ #
    # Events (one-shot flags: CVM's generalized synchronization).
    # ------------------------------------------------------------------ #
    def _event_state(self, eid: int) -> EventState:
        ev = self.events.get(eid)
        if ev is None:
            ev = self.events[eid] = EventState(eid)
        return ev

    def event_set(self, pid: int, eid: int) -> None:
        """Release half of an event: close the interval, record the
        consistency horizon, wake any waiters."""
        node = self.nodes[pid]
        if self._crasher is not None:
            self._maybe_crash(pid, "send")  # the event_set send
        ev = self._event_state(eid)
        if ev.is_set:
            raise SynchronizationError(
                f"event {eid} set twice (P{ev.setter}, then P{pid})")
        self._close_interval(node)
        ev.is_set = True
        ev.setter = pid
        ev.set_vc = node.vc.copy()
        node.open_interval(f"event({eid}) set")
        msg = self.net.send(
            "event_set", pid, (pid + 1) % self.config.nprocs, None,
            self.sizer.ints(2) + self.sizer.vector_clock(), node.clock)
        ev.set_time = msg.arrival_time
        for waiter in ev.waiters:
            self.scheduler.unblock(waiter)
        ev.waiters.clear()
        self.scheduler.yield_control(pid)

    def event_wait(self, pid: int, eid: int) -> None:
        """Acquire half: block until the event is set, then apply the
        setter's consistency information (write-notice invalidations plus
        the horizon clock)."""
        node = self.nodes[pid]
        ev = self._event_state(eid)
        self._close_interval(node)
        if not ev.is_set:
            ev.waiters.append(pid)
            self.scheduler.block(pid, f"event {eid}")
        node.clock.wait_until(ev.set_time)
        recs, _msg = self._ship_consistency(node.vc, ev.set_vc, node.clock)
        self._apply_consistency(node, recs, ev.set_vc)
        node.open_interval(f"event({eid}) wait")

    # ------------------------------------------------------------------ #
    # Barrier.
    # ------------------------------------------------------------------ #
    def barrier(self, pid: int) -> None:
        node = self.nodes[pid]
        self.scheduler.yield_control(pid)
        bar = self.barrier_state
        if self._crasher is not None:
            self._maybe_crash(pid, "barrier", generation=bar.generation)
            if node.crashed is not None:
                # The node died earlier this epoch (or right here): it is
                # recovered before it can arrive, so its arrival message —
                # and the arrival time the master sees — carries the full
                # recovery cost.
                self._charge_node_recovery(node)
        closed = self._close_interval(node)
        horizon = node.vc.copy()
        node.open_interval("barrier arrival")
        master_node = self.nodes[bar.master]
        if pid != bar.master:
            recs, msg = self._ship_consistency(
                master_node.vc, horizon, node.clock,
                ("barrier_arrival", pid, bar.master))
            self._apply_consistency(master_node, recs, horizon)
            arrival_now = msg.arrival_time
        else:
            arrival_now = node.clock.now
        if bar.failover:
            # The closing horizon is what a new coordinator would have to
            # re-solicit from this process if the master dies this epoch.
            bar.horizons[pid] = horizon
        last = bar.arrive(pid, arrival_now)
        if not last:
            self.scheduler.block(pid, f"barrier gen {bar.generation}")
        else:
            self._barrier_master_work()
            for other in range(self.config.nprocs):
                if other != pid:
                    self.scheduler.unblock(other)
        self._barrier_depart(pid)

    def _barrier_master_work(self) -> None:
        """Runs in the last arriver's thread but on the *coordinator's*
        virtual clock — detection overhead is serialized at the master
        (§6.2).  If the coordinator itself is among this epoch's crashed
        nodes and failover is enabled, the survivors first elect a
        replacement and migrate the detection state to it; the analysis
        then proceeds on the new coordinator's clock."""
        bar = self.barrier_state
        role = self.coordinator
        if (role.failover and self.config.nprocs > 1
                and self.nodes[role.pid].crashed is not None):
            self._coordinator_failover(bar)
        master_node = self.nodes[bar.master]
        master_clock = master_node.clock
        if self._crasher is not None:
            self._declare_deaths(bar, master_clock)
        master_clock.wait_until(max(bar.arrival_times.values()))
        if role.detector is not None:
            epoch_recs = role.collect_epoch(self.store, self.epoch)
            if not (self.config.sharded_detection
                    and self._run_sharded_detection(role, epoch_recs,
                                                    master_clock)):
                role.run_detection(epoch_recs, self.epoch, master_clock)
        self._barrier_release_pass(bar, master_node)
        if role.failover:
            # Journal the role state after every completed detection pass:
            # a coordinator death next epoch restores from here, so the
            # journal is never staler than the last barrier-consistent cut.
            role.journal_state(master_clock, self.config.cost_model)
        # The epoch is fully checked: discard its trace information
        # (bitmaps, notices).  Also sweep the previous epoch's stragglers
        # (the empty arrival intervals closed at departure).
        self.store.discard_epoch(self.epoch)
        if self.epoch > 0:
            self.store.discard_epoch(self.epoch - 1)
        self.epoch += 1
        bar.reset_for_next_generation()

    def _barrier_release_pass(self, bar: BarrierState,
                              master_node: Node) -> None:
        """Release payloads: one per process, carrying what it is missing.
        The write notices are applied (invalidating stale copies) here,
        *before* the checked epoch's records are discarded; the blocked
        processes are not running, so mutating their page tables is safe,
        and their departure only needs the horizon clock."""
        master_clock = master_node.clock
        release_vc = master_node.vc.copy()
        for other in range(self.config.nprocs):
            if other == bar.master:
                bar.release_box[other] = (release_vc, master_clock.now)
                continue
            recs, msg = self._ship_consistency(
                self.nodes[other].vc, release_vc, master_clock,
                ("barrier_release", bar.master, other))
            for rec in recs:
                self.protocol.apply_write_notice(self.nodes[other], rec)
            bar.release_box[other] = (release_vc, msg.arrival_time)

    # ------------------------------------------------------------------ #
    # Sharded detection (``--sharded-detection``): scatter the epoch's
    # pair blocks to shard owners, compute in parallel on the owners'
    # clocks, tree-reduce the candidate reports to the coordinator, and
    # commit there through the centralized dedup state — byte-identical
    # reports, with the coordinator's serialized detection share spread
    # over the live pids.  All protocol traffic under SHARDED_DETECT.
    # ------------------------------------------------------------------ #
    def _run_sharded_detection(self, role: CoordinatorRole,
                               epoch_recs: List[Interval],
                               master_clock) -> bool:
        """One epoch's detection, sharded when possible; False when it
        was not, and the caller falls back to the centralized engine.

        Gives up — soundly and without having mutated any detector state
        — when the epoch has nothing to shard, when a shard owner crashes
        during the sharded phase, or when a sharding exchange exhausts the
        reliable channel's retry budget.  The fallback re-runs the full
        pass on the coordinator's clock; virtual time already spent on the
        abandoned sharded phase stays spent (honest wasted work), but
        verdicts and detector statistics come out exactly as if sharding
        had been off for this epoch.
        """
        bar = self.barrier_state
        det = role.detector
        sh = self.sharding_stats
        crashed = [p for p in range(self.config.nprocs)
                   if self.nodes[p].crashed is not None]
        owners = bar.shard_owners(crashed)
        plan = det.plan_shards(epoch_recs, owners)
        if plan is None:
            sh.epochs_centralized += 1
            return False
        # Mid-phase owner deaths.  One crash point per live owner with a
        # non-empty shard, on the independent "detect" schedule (so the
        # access/send/barrier schedules of non-sharded runs are
        # unperturbed).  Evaluated only under crash_recovery: a fail-stop
        # raise here would unwind the last arriver's thread, not the
        # owner's.  Any hit abandons the sharded phase for this epoch —
        # the crashed owner recovers exactly like a barrier-arrival crash,
        # and the coordinator, after waiting out its detection timeout,
        # re-runs the full pass locally.
        if self._crasher is not None and self.config.crash_recovery:
            dead_owners = []
            for pid in owners[1:]:
                if not plan.shards[pid].blocks:
                    continue
                node = self.nodes[pid]
                if node.crashed is not None:
                    self.crash_stats.pending_crash_skips += 1
                    continue
                if self._crasher.decide(pid, "detect"):
                    self._crash_node(node, "detect")
                    self._charge_node_recovery(node)
                    dead_owners.append(pid)
            if dead_owners:
                master_clock.wait_until(
                    master_clock.now + DEFAULT_CRASH_DETECT_TIMEOUT)
                sh.fallbacks_owner_crash += 1
                return False
        try:
            results, items, staged = self._sharded_phases(det, plan,
                                                          master_clock)
        except RetryExhaustedError:
            sh.fallbacks_network += 1
            return False
        det.commit_sharded(plan, results, items, self.epoch, master_clock)
        # Counters for the sharded phases are staged and folded in only
        # now that the epoch committed: an abandoned phase (a fallback
        # above) must not leave dispatched-shard or shipped-record counts
        # behind for work whose results were thrown away.
        sh.merge(staged)
        sh.epochs_sharded += 1
        return True

    def _sharded_phases(self, det, plan, master_clock):
        """The three distributed phases of one sharded epoch; returns
        ``(shard results, fully merged candidate items, staged stats)``.

        Counters are accumulated in a *staged* :class:`ShardingStats`
        that the caller merges only after ``commit_sharded`` succeeds: a
        ``RetryExhaustedError`` mid-phase abandons the epoch, and
        counters incremented before the failing send would otherwise
        survive the fallback and overcount (shards "dispatched" whose
        results were discarded, records "shipped" that the fallback never
        used).

        1. *Scatter*: the block assignments fan out along a binary tree
           rooted at the coordinator (log-depth, not serialized on the
           coordinator's clock).  Each edge also carries the partner
           interval records the owners in its subtree have not observed
           — the coordinator already holds the epoch's full record set
           (it arrived on the barrier messages) and learned every
           arriver's clock the same way, so shipping the deltas downhill
           costs zero extra messages, where a fetch round would cost
           O(owners x partners) round trips per epoch.
        2. *Compute*: each owner, on its own clock, runs the pruned pair
           search for its blocks and fetches the bitmaps its check
           entries name (request/reply pairs, overlapped like the
           centralized engine's bitmap round).
        3. *Reduce*: candidate items flow back along the mirrored binary
           tree (owners at distance ``step`` merge pairwise), ending at
           the coordinator with the globally key-sorted stream.

        RetryExhaustedError from any exchange propagates to the caller's
        centralized fallback.
        """
        sizer = self.sizer
        sh = ShardingStats()  # staged; merged by the caller on commit
        cat = CostCategory.SHARDED_DETECT
        coord = plan.owners[0]
        active = [coord] + [pid for pid in plan.owners[1:]
                            if plan.shards[pid].blocks]
        clocks = {pid: self.nodes[pid].clock for pid in active}
        sh.shards_dispatched += sum(
            1 for pid in active if plan.shards[pid].blocks)
        n = len(active)
        # Per-owner record deltas: what each owner's own clock has not
        # observed of the partner pids its blocks name.  The records are
        # physically in the global store (the simulation models placement
        # by accounting); what is priced is their wire metadata riding
        # the scatter tree below.
        missing: Dict[int, List[Interval]] = {}
        for pid in active[1:]:
            node_vc = self.nodes[pid].vc
            partners = sorted({x for blk in plan.shards[pid].blocks
                               for x in blk if x != pid})
            recs = [rec for q in partners for rec in plan.by_pid[q]
                    if not rec.is_empty
                    and not precedes(q, rec.index, node_vc)]
            missing[pid] = recs
            sh.records_shipped += len(recs)
        # Phase 1: binary-tree scatter of assignments + record deltas.
        steps = []
        step = 1
        while step < n:
            steps.append(step)
            step *= 2
        for step in reversed(steps):
            i = 0
            while i + step < n:
                src, dst = active[i], active[i + step]
                subtree = active[i + step:min(i + 2 * step, n)]
                nblocks = sum(len(plan.shards[p].blocks) for p in subtree)
                body = sizer.ints(3 + 2 * len(subtree) + 2 * nblocks)
                # Each edge ships the union of its subtree's deltas, every
                # record once, plus one horizon clock per owner.
                edge_recs = {}
                for p in subtree:
                    body += sizer.vector_clock()
                    for rec in missing[p]:
                        edge_recs[(rec.pid, rec.index)] = rec
                rec_bytes, _rb, digest_bytes = self._record_bytes(
                    edge_recs.values())
                msg = self.net.send("detect_shard", src, dst, None,
                                    body + rec_bytes, clocks[src],
                                    category=cat, fragmentable=True)
                self._charge_digests(digest_bytes, clocks[src])
                clocks[dst].wait_until(msg.arrival_time)
                sh.scatter_messages += 1
                sh.bytes_scattered += msg.nbytes
                i += 2 * step
        # Phase 2: shard compute, per owner on its own clock.
        results = []
        buffers = {}
        for pid in active:
            shard = plan.shards[pid]
            clock = clocks[pid]
            res = det.compute_shard(shard, plan, self.epoch, clock)
            sh.bitmap_fetch_messages += res.fetch_messages
            sh.bitmap_fetch_bytes += res.fetch_bytes
            results.append(res)
            buffers[pid] = res.items
        # Phase 3: binary tree-reduce of the candidate items, mirroring
        # the scatter tree; the coordinator (index 0) absorbs the final
        # merges on the master clock.
        step = 1
        while step < n:
            i = 0
            while i + step < n:
                dst, src = active[i], active[i + step]
                msg = self.net.send(
                    "shard_reduce", src, dst, len(buffers[src]),
                    det.shard_reduce_bytes(buffers[src]), clocks[src],
                    category=cat, fragmentable=True)
                clocks[dst].wait_until(msg.arrival_time)
                sh.reduce_messages += 1
                sh.bytes_reduced += msg.nbytes
                buffers[dst] = det.merge_shard_items(buffers[dst],
                                                     buffers[src])
                i += 2 * step
            step *= 2
        return results, buffers[coord], sh

    def _coordinator_failover(self, bar: BarrierState) -> None:
        """Election plus detection-state migration, run before the barrier
        analysis when the coordinator is among this epoch's crashed nodes.

        Protocol (all charges and traffic under ``CostCategory.FAILOVER``,
        which stays out of the overhead breakdown):

        1. The survivors time out on the coordinator's silence past the
           last live arrival (``election_timeout``, overlapping — not
           stacking with — the death-declaration timeout) and hold the
           deterministic rank election: lowest live pid wins.
        2. Each survivor sends its vote to the winner; the winner announces
           the outcome to the rest.
        3. The winner fetches the coordinator-state journal from stable
           storage, pays the restore cost, and rebuilds the detector from
           it (:meth:`CoordinatorRole.install_from_journal`); the barrier
           master is reassigned so release and death-declaration run here.
        4. The closing epoch's in-flight interval/write-notice metadata is
           re-solicited from every process's recorded arrival horizon —
           the same payloads the old master absorbed on the arrival
           messages — so the new coordinator's clock dominates every
           arrival before ``release_vc`` is computed.  The records
           themselves live in the global store (they are regenerated
           deterministically by recovery re-execution), which is why the
           crash-free race reports come out byte-identical.
        """
        role = self.coordinator
        cm = self.config.cost_model
        old = role.pid
        live = [p for p in range(self.config.nprocs)
                if self.nodes[p].crashed is None]
        winner = elect_coordinator(old, live, self.config.nprocs)
        new_node = self.nodes[winner]
        clock = new_node.clock
        live_arrivals = [t for p, t in bar.arrival_times.items()
                         if self.nodes[p].crashed is None]
        start = max(live_arrivals) if live_arrivals else clock.now
        clock.wait_until(start + self.config.election_timeout)
        for p in sorted(bar.arrival_times):
            if p == winner or self.nodes[p].crashed is not None:
                continue
            msg = self.net.send("election_vote", p, winner, None,
                                self.sizer.ints(3), clock,
                                category=CostCategory.FAILOVER)
            clock.wait_until(msg.arrival_time)
        for p in sorted(bar.arrival_times):
            if p == winner or p == old or self.nodes[p].crashed is not None:
                continue
            self.net.send("coordinator_announce", winner, p, None,
                          self.sizer.ints(2), clock,
                          category=CostCategory.FAILOVER)
        jbytes = len(role.journal_json.encode("utf-8"))
        msg = self.net.send("coordinator_state", old, winner, None,
                            self.sizer.ints(2) + jbytes, clock,
                            category=CostCategory.FAILOVER,
                            fragmentable=True)
        clock.wait_until(msg.arrival_time)
        clock.advance(cm.checkpoint_restore_per_byte * jbytes,
                      CostCategory.FAILOVER)
        role.install_from_journal(
            winner,
            fallback_state=self._checkpointed_coordinator_state(old))
        bar.reassign_master(winner)
        # Delta re-solicitation: each survivor resends only its *own*
        # records past the winner's pre-election clock (snapshotted in
        # ``vc0`` — the evolving clock must not be consulted, or a reply
        # that merely *names* another pid's horizon entry would silently
        # suppress that pid's still-unsent records).  The union over all
        # survivors equals the full-payload protocol's applied set — every
        # foreign record a horizon names is its owner's own record in some
        # other reply — and write-notice application is order-insensitive
        # and idempotent, so page state, invalidation counts and the
        # merged clock come out identical, for a fraction of the bytes.
        vc0 = new_node.vc.copy()
        for p in sorted(bar.horizons):
            if p == winner:
                continue
            horizon = bar.horizons[p]
            recs, body, _rb, digest_bytes = self._consistency_payload(
                vc0, horizon, pids=(p,))
            self.net.send("resolicit_request", winner, p, None,
                          self.sizer.ints(2) + self.sizer.vector_clock(),
                          clock, category=CostCategory.FAILOVER)
            msg = self.net.send("resolicit_reply", p, winner, len(recs),
                                body, clock,
                                category=CostCategory.FAILOVER,
                                fragmentable=True)
            self._charge_digests(digest_bytes, clock)
            clock.wait_until(msg.arrival_time)
            self._apply_consistency(new_node, recs, horizon)
            role.stats.records_resolicited += len(recs)

    def _checkpointed_coordinator_state(self, pid: int):
        """The dead coordinator's detector state as of its last barrier
        checkpoint, or None when checkpointing is off or no snapshot holds
        a coordinator section.  This is the durable fallback
        :meth:`CoordinatorRole.install_from_journal` restores from when
        the journal tail turns out torn or corrupt."""
        if self.checkpoints is None:
            return None
        snap = self.checkpoints.latest(pid)
        if snap is None:
            return None
        section = snap.data.get("coordinator")
        if not section:
            return None
        return section.get("state")

    def _declare_deaths(self, bar: BarrierState, master_clock) -> None:
        """Master-side half of the recovery protocol, run before the
        barrier analysis: any process with a pending crash missed the
        deadline, so the master waits out its virtual-time timeout past the
        last live arrival, declares the silent nodes dead, and sends each a
        recovery request over ``self.net`` — the reliable channel when
        faults are enabled, so recovery survives the same lossy network as
        everything else.  The dead node's effective arrival is then whatever is
        later — its self-recovered arrival, or recovery triggered by the
        master's request plus the node's crash-to-arrival span."""
        crashed = [p for p in range(self.config.nprocs)
                   if self.nodes[p].crashed is not None]
        if not crashed:
            return
        live = [t for p, t in bar.arrival_times.items() if p not in crashed]
        deadline = ((max(live) if live else master_clock.now)
                    + DEFAULT_CRASH_DETECT_TIMEOUT)
        master_clock.wait_until(deadline)
        for p in sorted(crashed):
            bar.declare_dead(p)
            self.crash_stats.deaths_declared += 1
            rec = self.nodes[p].crashed
            msg = self.net.send(
                "recovery_request", bar.master, p, None,
                self.sizer.ints(2), master_clock,
                category=CostCategory.RECOVERY)
            arrived = bar.arrival_times[p]
            bar.arrival_times[p] = max(
                arrived, msg.arrival_time + (arrived - rec.time))
        self._migrate_lock_managers(bar, set(crashed), master_clock)

    def _migrate_lock_managers(self, bar: BarrierState, dead: set,
                               master_clock) -> None:
        """Re-home every lock whose static manager pid was just declared
        dead onto the lowest live pid.

        The static ``lid % nprocs`` assignment never moved before: a
        manager death left its locks pointed at a node that is silent for
        the rest of the recovery window, stranding every blocked waiter's
        request/forward exchange at a dead endpoint.  The master (which
        has just declared the deaths) ships each managed lock's queue and
        prepared-grant state (``grant_box`` — grants a releaser prepared
        for waiters that have not consumed them yet) to the new manager in
        one handoff message, priced under RECOVERY like the rest of the
        death-declaration protocol.  Race verdicts are vector-clock
        structural, so the re-homing changes traffic and virtual time only
        — reports stay byte-identical to the crash-free run's."""
        if not dead:
            return
        live = [p for p in range(self.config.nprocs) if p not in dead]
        if not live:
            return
        new_mgr = live[0]
        for lid in sorted(self.locks):
            st = self.locks[lid]
            if st.manager not in dead:
                continue
            st.manager = new_mgr
            self.crash_stats.locks_migrated += 1
            if new_mgr != bar.master:
                # Lock id + holder + queue snapshot + prepared grants
                # (pid + vector clock each).
                body = (self.sizer.ints(3 + len(st.queue))
                        + len(st.grant_box)
                        * (self.sizer.ints(1) + self.sizer.vector_clock()))
                self.net.send("lock_migrate", bar.master, new_mgr, None,
                              body, master_clock,
                              category=CostCategory.RECOVERY)

    def _barrier_depart(self, pid: int) -> None:
        node = self.nodes[pid]
        bar = self.barrier_state
        release_vc, arrival_time = bar.release_box.pop(pid)
        node.clock.wait_until(arrival_time)
        self._close_interval(node)  # the (empty) arrival interval
        # Write notices were already applied by the master's release pass;
        # departing only merges the horizon clock.
        node.vc.observe(release_vc)
        node.epoch = self.epoch
        node.open_interval("barrier depart")
        # The departure is the epoch's consistent cut: a recovered node's
        # crash is fully absorbed here, and (when enabled) each node
        # checkpoints itself before touching the new epoch.
        node.crashed = None
        node.epoch_start_time = node.clock.now
        if (self._resume_mgr is not None
                and bar.barriers_completed == self._resume_gen):
            self._install_resume(node)
        if self.checkpoints is not None:
            self._take_checkpoint(node, generation=bar.barriers_completed)

    # ------------------------------------------------------------------ #
    # Consolidation between barriers (§6.3).
    # ------------------------------------------------------------------ #
    def _maybe_consolidate(self, node: Node) -> None:
        limit = self.config.consolidation_interval
        if limit <= 0 or self.detector is None:
            return
        if node.intervals_in_current_epoch() >= limit:
            self.consolidate(node.pid)

    def consolidate(self, pid: int) -> int:
        """Race-check and garbage-collect intervals that are already
        ordered before every process's current view — they can never be
        concurrent with anything created later, so they can be retired
        without global synchronization.  Returns how many were retired."""
        if self.detector is None:
            return 0
        node = self.nodes[pid]
        current = self.store.epoch_intervals(self.epoch)
        if not current:
            return 0
        self.detector.run_epoch(current, self.epoch, node.clock)
        retired = 0
        for rec in current:
            if all(other.vc[rec.pid] >= rec.index for other in self.nodes):
                table = self.store.by_pid().get(rec.pid, {})
                if rec.index in table:
                    del table[rec.index]
                    retired += 1
        return retired


class Env:
    """Per-process application handle: the DSM API plus the analysis
    routine of the paper's instrumentation (access classification, bitmap
    maintenance, cost accounting).  A *warm* access — valid copy
    (``WRITABLE`` for a store), bitmap already in the open interval — is
    decided here and costs one further call, ``Bitmap.set``/``set_range``:
    ``ensure_*`` would return without a side effect, and a bitmap implies
    its notice (``Interval``).  Pages and interval are read through the
    node on every access: recovery replaces both."""

    def __init__(self, system: CVM, pid: int):
        self.system = system
        self.pid = pid
        self.config = config = system.config
        self.nprocs = config.nprocs
        self._node = system.nodes[pid]
        self._clock = self._node.clock
        self._cm = cm = config.cost_model
        self._psz = config.page_size_words
        self._accesses_since_yield = 0
        self._detect = config.detection
        #: §6.5 diff mode dispenses with store instrumentation entirely.
        self._record_writes = (config.detection
                               and not config.diff_write_detection)
        self._proc_call = (0.0 if config.inline_instrumentation
                           else cm.proc_call)
        # Tracing, pc-watching and crash injection are all fixed before
        # run() (the config is frozen; replay attribution installs its
        # watch on the system before starting the second run).
        self._trace = config.track_access_trace
        self._watching = system.pc_watch is not None
        self._crasher = system._crasher
        #: Accesses between two visits to the hook tail (_after_access):
        #: one when any hook is configured, else only when a yield is due.
        self._tail_every = (1 if self._trace or self._watching
                            or self._crasher is not None else YIELD_EVERY)
        self._segwords = config.segment_words
        self._segment = system.segment
        #: Bounds-check cache of the range engine: the allocation the last
        #: range starting on each page fell in, good while the segment's
        #: generation is the one they were looked up under.
        self._blocks: Dict[int, Allocation] = {}
        self._blocks_gen = system.segment.generation
        self._ensure_readable = system.protocol.ensure_readable
        self._ensure_writable = system.protocol.ensure_writable
        self._slots = self._clock.ledger.slots
        # Per-word (BASE, PROC_CALL, ACCESS_CHECK) cycles of a shared read,
        # a shared write and an instrumented-but-private access.  The
        # access engine adds them to the clock and the ledger slots
        # itself, so the ledger's negative-charge check runs here, once.
        plain = (cm.plain_access, 0.0, 0.0)
        shared = (cm.plain_access, self._proc_call, cm.access_check_shared)
        self._read_costs = shared if self._detect else plain
        self._write_costs = shared if self._record_writes else plain
        self._private_costs = ((cm.plain_access, self._proc_call,
                                cm.access_check_private)
                               if self._detect else plain)
        for cycles in (*shared, cm.access_check_private, cm.compute_unit):
            if cycles < 0:
                raise ValueError(f"negative charge: {cycles}")

    # ------------------------------------------------------------------ #
    # Allocation.
    # ------------------------------------------------------------------ #
    def malloc(self, nwords: int, name: Optional[str] = None,
               page_aligned: bool = False) -> int:
        """Allocate shared memory.  Named allocations are idempotent across
        processes (the SPMD idiom: every process asks for ``"grid"`` and
        gets the same address) — for the same size: scalar accesses are
        bounds-checked against the segment only, so a process handed a
        smaller block than it asked for would write into its neighbour."""
        seg = self.system.segment
        if name is not None:
            try:
                block = seg.lookup(name)
            except AllocationError:
                pass
            else:
                if block.nwords != nwords:
                    raise AllocationError(
                        f"P{self.pid}: malloc({nwords}, name={name!r}) does "
                        f"not match the existing {block.nwords}-word block "
                        f"{name!r}")
                return block.addr
        return seg.malloc(nwords, name=name, page_aligned=page_aligned)

    def symbol_for(self, addr: int) -> str:
        return self.system.segment.symbol_for(addr)

    # ------------------------------------------------------------------ #
    # Shared accesses.  One straight-line path per operation: bounds
    # check, protocol fault check, one clock advance with its ledger
    # slots, the interval's bitmap, then the hook tail when one is due.
    # The total is summed before it reaches the clock; every cost-model
    # constant is a dyadic rational far below 2**52, so float addition
    # over them is exact and ``now`` and each ledger slot come out
    # bit-identical to one advance per word and cost category — the
    # paper's analysis routine as tests/dsm/reference_env.py spells it
    # out, which tests/dsm/test_env_matches_reference.py holds these four
    # bodies to.
    # ------------------------------------------------------------------ #
    def load(self, addr: int, site: Optional[str] = None) -> Any:
        if not 0 <= addr < self._segwords:
            raise SegmentationFault(self.pid, addr)
        node = self._node
        page, off = divmod(addr, self._psz)
        copy = node.pages.get(page)
        if copy is None or copy.state is _INVALID or copy.data is None:
            copy = self._ensure_readable(node, page)
        base, pc, ac = self._read_costs
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        if self._detect:
            node.shared_instr_calls += 1
            current = node.current
            bm = current.read_bitmaps.get(page)
            if bm is None or current.closed:
                current.record_read(page, off)
            else:
                bm.set(off)
        n = self._accesses_since_yield = self._accesses_since_yield + 1
        if n >= self._tail_every:
            self._after_access(addr, 1, False, site)
        return copy.data[off]

    def store(self, addr: int, value: Any, site: Optional[str] = None) -> None:
        if not 0 <= addr < self._segwords:
            raise SegmentationFault(self.pid, addr)
        node = self._node
        page, off = divmod(addr, self._psz)
        copy = node.pages.get(page)
        if copy is None or copy.state is not _WRITABLE:
            copy = self._ensure_writable(node, page, off)
        copy.data[off] = value
        base, pc, ac = self._write_costs
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        if self._record_writes:
            node.shared_instr_calls += 1
            current = node.current
            bm = current.write_bitmaps.get(page)
            if bm is None or current.closed:
                current.record_write(page, off)
            else:
                bm.set(off)
        n = self._accesses_since_yield = self._accesses_since_yield + 1
        if n >= self._tail_every:
            self._after_access(addr, 1, True, site)

    def load_range(self, addr: int, count: int,
                   site: Optional[str] = None) -> List[Any]:
        if count <= 0:
            return []
        node = self._node
        psz = self._psz
        page, off = divmod(addr, psz)
        block = self._blocks.get(page)
        if (block is None or addr < block.addr or addr + count > block.end
                or self._blocks_gen != self._segment.generation):
            self._cache_block(page, addr, count)
        n = psz - off
        detect = self._detect
        if count <= n:  # common case: the whole range on one page
            copy = node.pages.get(page)
            if copy is None or copy.state is _INVALID or copy.data is None:
                copy = self._ensure_readable(node, page)
            out = copy.data[off:off + count]
            if detect:
                current = node.current
                bm = current.read_bitmaps.get(page)
                if bm is None or current.closed:
                    current.record_read(page, off, count)
                else:
                    bm.set_range(off, count)
        else:
            out = []
            remaining = count
            while True:
                take = min(n, remaining)
                out += self._ensure_readable(node, page).data[off:off + take]
                if detect:
                    node.current.record_read(page, off, take)
                remaining -= take
                if not remaining:
                    break
                page += 1
                off = 0
                n = psz
        if detect:
            node.shared_instr_calls += count
        base, pc, ac = self._read_costs
        base *= count
        pc *= count
        ac *= count
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        n = self._accesses_since_yield = self._accesses_since_yield + count
        if n >= self._tail_every:
            self._after_access(addr, count, False, site)
        return out

    def store_range(self, addr: int, values: Sequence[Any],
                    site: Optional[str] = None) -> None:
        count = len(values)
        if count == 0:
            return
        node = self._node
        psz = self._psz
        page, off = divmod(addr, psz)
        block = self._blocks.get(page)
        if (block is None or addr < block.addr or addr + count > block.end
                or self._blocks_gen != self._segment.generation):
            self._cache_block(page, addr, count)
        n = psz - off
        record = self._record_writes
        if count <= n:  # common case: no slicing of ``values`` at all
            copy = node.pages.get(page)
            if copy is None or copy.state is not _WRITABLE:
                copy = self._ensure_writable(node, page, off)
            copy.data[off:off + count] = values
            if record:
                current = node.current
                bm = current.write_bitmaps.get(page)
                if bm is None or current.closed:
                    current.record_write(page, off, count)
                else:
                    bm.set_range(off, count)
        else:
            taken = 0
            while True:
                take = min(n, count - taken)
                self._ensure_writable(node, page, off).data[
                    off:off + take] = values[taken:taken + take]
                if record:
                    node.current.record_write(page, off, take)
                taken += take
                if taken == count:
                    break
                page += 1
                off = 0
                n = psz
        if record:
            node.shared_instr_calls += count
        base, pc, ac = self._write_costs
        base *= count
        pc *= count
        ac *= count
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        n = self._accesses_since_yield = self._accesses_since_yield + count
        if n >= self._tail_every:
            self._after_access(addr, count, True, site)

    def _cache_block(self, page: int, addr: int, count: int) -> None:
        """Range bounds check on a miss of the block cache: look the
        allocation up (faulting as this process) and keep it for the next
        range that starts on ``page``."""
        segment = self._segment
        if self._blocks_gen != segment.generation:  # a free() since
            self._blocks.clear()
            self._blocks_gen = segment.generation
        self._blocks[page] = segment.check_range(addr, count, self.pid)

    def _after_access(self, addr: int, count: int, is_write: bool,
                      site: Optional[str]) -> None:
        """The hook tail of an access already counted into
        ``_accesses_since_yield``: trace, pc-watch, crash point, yield."""
        if self._trace or self._watching:
            system = self.system
            if self._trace:
                system.access_trace.append(TraceEvent(
                    self.pid, self._node.vc[self.pid], addr, count, is_write))
            if self._watching:
                for w in range(addr, addr + count):
                    hits = system.pc_watch.get(w)
                    if hits is not None:
                        hits.append((self.pid, self._node.vc[self.pid],
                                     site or "<unknown site>", is_write))
        if self._crasher is not None:
            self.system._maybe_crash(self.pid, "access")
        if self._accesses_since_yield >= YIELD_EVERY:
            self._accesses_since_yield = 0
            self.system.scheduler.yield_control(self.pid)

    # ------------------------------------------------------------------ #
    # Private work (instrumented-but-private accesses, pure compute).
    # ------------------------------------------------------------------ #
    def private_accesses(self, count: int) -> None:
        """Model ``count`` loads/stores that static analysis could not
        prove private, so they are instrumented — and at run time turn out
        to reference private data.  The paper's Table 3 shows these
        dominate the runtime calls to the analysis routines."""
        if count <= 0:
            return
        if self._detect:
            self._node.private_instr_calls += count
        base, pc, ac = self._private_costs
        base *= count
        pc *= count
        ac *= count
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac

    def compute(self, units: float) -> None:
        """Charge pure computation (uninstrumented work)."""
        if units > 0:
            cycles = self._cm.compute_unit * units
            self._clock.now += cycles
            self._slots[_BASE] += cycles

    def pause(self, times: int = 1) -> None:
        """Yield to the scheduler ``times`` times — models local work long
        enough for other processes to proceed.  Purely a scheduling hint:
        it creates *no* happens-before ordering, which is exactly what the
        weak-memory example programs need (they must let another process
        run first without synchronizing with it)."""
        for _ in range(times):
            self.system.scheduler.yield_control(self.pid)

    # ------------------------------------------------------------------ #
    # Synchronization.
    # ------------------------------------------------------------------ #
    def lock(self, lid: int) -> None:
        self.system.lock_acquire(self.pid, lid)

    def unlock(self, lid: int) -> None:
        self.system.lock_release(self.pid, lid)

    @contextlib.contextmanager
    def locked(self, lid: int):
        self.lock(lid)
        try:
            yield
        finally:
            self.unlock(lid)

    def barrier(self) -> None:
        self.system.barrier(self.pid)

    def set_event(self, eid: int) -> None:
        """Signal a one-shot event (a release: accesses before the set
        happen-before accesses after any wait that observes it)."""
        self.system.event_set(self.pid, eid)

    def wait_event(self, eid: int) -> None:
        """Wait for a one-shot event (the matching acquire)."""
        self.system.event_wait(self.pid, eid)
