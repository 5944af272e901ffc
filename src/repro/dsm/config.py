"""DSM system configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import ConfigError
from repro.net.faults import FaultPlan, plan_from_rates
from repro.net.reliable import DEFAULT_RETRY_BUDGET
from repro.sim.costmodel import CostModel
from repro.sim.crash import CrashPlan, plan_from_options

#: DECstation Alphas used 8 KB pages; with 8-byte words that is 1024 words.
DEFAULT_PAGE_SIZE_WORDS = 1024

#: The execution modes of the two-phase pipeline that read or write a trace.
TWO_PHASE_MODES = ("record", "detect-offline")


class Conflict(NamedTuple):
    """One rule of the flag-conflict table.

    ``applies(config)`` is true for a composition the rule refuses;
    ``reason`` is the :class:`~repro.errors.ConfigError` text and must name
    every entry of ``flags`` (both are formatted with ``mode=config.mode``)
    so the user is told *which* flags collide; ``witnesses`` maps a
    description to constructor kwargs that trip the rule —
    ``tests/dsm/test_config_matrix.py`` constructs every one of them, so a
    rule cannot exist without a test."""

    applies: Callable[["DsmConfig"], bool]
    flags: Tuple[str, ...]
    reason: str
    witnesses: Dict[str, Dict[str, Any]]


#: Every cross-flag refusal, in the order ``DsmConfig.__post_init__`` walks
#: them (after the per-field range checks): the first rule that applies
#: raises.
CONFLICTS: Tuple[Conflict, ...] = (
    Conflict(
        lambda c: not c.master_failover
        and any(pid == 0 for pid, _gen in c.crash_at),
        ("--crash-at", "--master-failover"),
        "--crash-at cannot target P0: the barrier master runs "
        "the detector and cannot crash unless master failover "
        "is enabled (--master-failover)",
        {"master crash without failover":
             dict(crash_at=((0, 1),), nprocs=4)}),
    Conflict(
        lambda c: c.mode not in ("online",) + TWO_PHASE_MODES,
        ("--mode", "{mode}"),
        "unknown mode {mode!r} (--mode): expected 'online', "
        "'record' or 'detect-offline'",
        {"unknown mode": dict(mode="turbo")}),
    Conflict(
        lambda c: c.mode in TWO_PHASE_MODES and c.trace_file is None,
        ("--mode {mode}", "--trace-file"),
        "--mode {mode} requires a trace path (--trace-file)",
        {"record without trace file": dict(mode="record"),
         "detect-offline without trace file": dict(mode="detect-offline")}),
    Conflict(
        lambda c: c.mode in TWO_PHASE_MODES and c.crashes_enabled,
        ("--mode {mode}", "--crash-rate", "--crash-at"),
        "--mode {mode} cannot compose with crash "
        "injection (--crash-rate/--crash-at): a crash changes "
        "which synchronization events exist, so the trace "
        "would silently mis-record the execution; drop one of "
        "the two flags",
        {"record with random crashes":
             dict(mode="record", trace_file="/tmp/t.log", crash_rate=0.01),
         "record with scheduled crash":
             dict(mode="record", trace_file="/tmp/t.log",
                  crash_at=((1, 0),)),
         "detect-offline with random crashes":
             dict(mode="detect-offline", trace_file="/tmp/t.log",
                  crash_rate=0.01),
         "detect-offline with scheduled crash":
             dict(mode="detect-offline", trace_file="/tmp/t.log",
                  crash_at=((1, 0),))}),
    Conflict(
        lambda c: c.mode in TWO_PHASE_MODES and c.resume_from is not None,
        ("--mode {mode}", "--resume-from"),
        "--mode {mode} cannot compose with --resume-from: "
        "a resumed run skips the synchronization events the "
        "checkpoints cover, so the trace and the execution "
        "would disagree; drop one of the two flags",
        {"record with resume":
             dict(mode="record", trace_file="/tmp/t.log",
                  resume_from="/tmp/ck"),
         "detect-offline with resume":
             dict(mode="detect-offline", trace_file="/tmp/t.log",
                  resume_from="/tmp/ck")}),
    Conflict(
        lambda c: c.mode == "online" and c.trace_file is not None,
        ("--trace-file", "online"),
        "--trace-file only makes sense with --mode record or "
        "--mode detect-offline (current mode: 'online')",
        {"trace file with online mode": dict(trace_file="/tmp/t.log")}),
)


@dataclass
class DsmConfig:
    """Everything needed to stand up a CVM instance.

    Attributes:
        nprocs: Number of simulated processes.
        page_size_words: Page size in 8-byte words (must be a multiple
            of 8 so bitmaps pack into bytes).
        segment_words: Capacity of the shared data segment.
        protocol: ``"sw"`` (single-writer, the paper's prototype) or
            ``"mw"`` (multi-writer with twins and diffs, §6.5).
        detection: Master switch for on-the-fly race detection.  Off, the
            system behaves like unmodified CVM (no read notices, no
            bitmaps, no barrier analysis) — the baseline for slowdowns.
        first_races_only: Report only races from the earliest barrier
            epoch that has any (§6.4 extension).
        detector_fast_path: Use the pruned pair search plus the bit-parallel
            page-index join as the detection execution engine (default).  The
            race verdicts, detector statistics, and virtual-time ledgers
            are identical to the reference engine — the naive algorithm's
            cost is still charged to the master clock analytically — only
            real (Python) wall-clock time differs.  Off = the paper's
            literal O(i²p²) algorithm, kept for equivalence tests.
        diff_write_detection: With the multi-writer protocol, derive write
            bitmaps from diffs instead of instrumenting stores (§6.5
            extension; same-value overwrites become invisible).
        inline_instrumentation: Model the promised inlining ATOM version:
            the per-access procedure-call cost drops to zero (§6.5).
        consolidation_interval: If > 0, run a detection/garbage-collection
            pass after this many intervals accumulate on some process with
            no intervening barrier (§6.3).  0 disables.
        policy: Scheduling policy spec (``"round_robin"`` or ``"random"``).
        seed: Seed for the scheduling policy.
        loss_rate: Per-datagram drop probability of the simulated network.
            Any nonzero fault rate (or an explicit ``fault_plan``) routes
            all traffic through the reliable channel
            (:mod:`repro.net.reliable`); all zero (default), the bare
            transport is used and ledgers are byte-identical to a
            fault-free build.
        duplicate_rate: Per-datagram duplication probability.
        reorder_rate: Per-datagram reordering (late delivery) probability.
        fault_seed: Seed of the deterministic fault schedule
            (``--fault-seed``); independent of the scheduling ``seed``.
        retry_budget: Total transmission attempts per fragment before the
            reliable channel gives up (``--retry-budget``).
        fault_plan: Full per-tag fault plan; overrides the scalar rates
            (which then only serve as CLI-level shorthand).
        crash_rate: Per-event node-crash probability (``--crash-rate``);
            evaluated at shared accesses, message sends and barrier
            arrivals of non-master processes.  0 (default) disables crash
            injection entirely and keeps every artifact byte-identical to
            a crash-free build.
        crash_seed: Seed of the deterministic crash schedule
            (``--crash-seed``); independent of both the scheduling ``seed``
            and the network ``fault_seed``.
        crash_at: Scheduled crashes as ``(pid, barrier_generation)`` pairs
            (``--crash-at PID:GEN``): the node crashes at its arrival at
            that barrier generation regardless of ``crash_rate``.  The
            barrier master (P0) can only be scheduled when
            ``master_failover`` is on; otherwise it runs the detector and
            the recovery protocol and targeting it is a configuration
            error.
        crash_recovery: When True (default), a crashed node is recovered —
            from its latest barrier checkpoint when checkpointing is on,
            or by restart-and-reexecute with *lost* detection metadata
            when it is off.  False = fail-stop: the node simply dies and
            the survivors' next barrier deadlocks (the no-tolerance
            baseline).
        master_failover: Make the barrier master an elected, migratable
            coordinator role (``--master-failover``): when the current
            coordinator dies, the surviving nodes elect the lowest live
            pid, migrate the detector's serialized state to it, and
            re-solicit in-flight interval metadata — the run completes and
            reports races instead of rejecting master crashes.  All
            failover charges go to ``CostCategory.FAILOVER``, outside the
            overhead breakdown; off (the default), the pinned-master
            behaviour and every artifact are byte-identical to previous
            builds.
        sharded_detection: Distribute each barrier epoch's pair search
            across the live processes (``--sharded-detection``): the
            coordinator partitions the cross-process interval-pair blocks
            over shard owners, each owner fetches the partner records it
            is missing, runs the pruned pair search and the bitmap
            comparison for its blocks on its *own* clock, and the
            candidate reports tree-reduce back to the coordinator, which
            merges and dedups them against the cross-epoch keys — the
            emitted RaceReports are byte-identical to the centralized
            engine's (order, dedup keys, verdicts).  The distribution
            protocol's traffic is priced under
            ``CostCategory.SHARDED_DETECT``, outside the overhead
            breakdown, so sharding-off artifacts stay byte-identical.  A
            shard owner crashing mid-phase (or a sharding exchange
            exhausting the reliable channel's retries) falls back to
            coordinator-local detection for that epoch, soundly.  Off by
            default.
        coarse_filter: Two-level detection filter (``--coarse-filter`` /
            ``--no-coarse-filter``; default **on**).  Each interval
            record piggy-backs a coarse per-page access digest — a
            16-word-granule mini-bitmap, plus a Bloom filter of the exact
            word offsets for sparse access sets — on the write/read
            notices it already ships, so whichever engine runs detection
            (the centralized master or the sharded owners) can prove
            most page-overlapping combinations race-free from data in
            hand, issuing the bitmap-fetch round only for granule hits.
            The pre-check is conservative (digest-disjoint implies the
            word bitmaps cannot intersect), so **race reports are
            byte-identical with the filter on or off** — only the fetch
            traffic, the BITMAPS/SHARDED_DETECT comparison charges, and
            wall-clock shrink.  Digest carriage and granule-check cycles
            are priced under ``CostCategory.COARSE_FILTER``, outside the
            overhead breakdown.  Inert without ``detection``; the paper
            harness pins it off so Tables 1–3 and Figures 3–4 stay
            byte-identical to the unfiltered pipeline.
        checkpoint: Take barrier-consistent in-memory checkpoints of every
            node (enables recovery with no lost metadata).
        checkpoint_dir: Directory to persist checkpoints to
            (``--checkpoint-dir``); implies ``checkpoint``.
        checkpoint_delta: Inert: checkpoints are always delta-encoded
            against the node's previous generation.  Kept only because
            callers still pass it; like ``checkpoint`` it implies
            checkpointing.
        resume_from: Checkpoint directory to resume from
            (``--resume-from``): the run re-executes deterministically and,
            at the barrier generation the directory covers, validates and
            reinstalls every node's state from the restored snapshots —
            reproducing the uninterrupted run's report byte-identically.
        mode: Execution mode of the two-phase pipeline.  ``"online"``
            (default): the monolithic run, detector inline.  ``"record"``:
            log only synchronization order (lock grant order, barrier
            arrival order, sync-message delivery order) to ``trace_file``
            with detection forced off — no bitmaps, read notices or
            detection traffic; the logging cost is priced under
            ``CostCategory.RECORD``, outside the overhead breakdown.
            ``"detect-offline"``: re-execute steered by ``trace_file``
            with the full detector on; reports are byte-identical to an
            online run of the same seed/config.  Record and
            detect-offline refuse to compose with crash injection and
            ``--resume-from`` (a crash or a resume would change which
            synchronization events exist, silently mis-recording), and
            raise :class:`~repro.errors.ConfigError` naming both flags.
            Lossy networks compose: the record run logs *post-retransmit*
            delivery order, so the replay is steered by what was actually
            delivered.
        trace_file: Path of the hash-framed synchronization-order trace
            (``--trace-file``): written by ``--mode record``, read by
            ``--mode detect-offline``.  Required by both, rejected with
            ``"online"``.
        deadline_seconds: Wall-clock budget for the whole run
            (``--deadline``).  When the scheduler's dispatch step sees
            the budget exceeded, ``Scheduler.run()`` raises
            :class:`~repro.errors.DeadlineExceeded` (CLI exit code 4)
            instead of hanging forever.  Purely wall-clock: a run that
            finishes in time is byte-identical to one with no deadline.
            ``None`` (default) disables the guard.
        cost_model: Cycle costs for virtual time.
        track_access_trace: Record every shared access for the baseline
            (oracle) detectors; expensive, test-scale inputs only.
    """

    nprocs: int = 8
    page_size_words: int = DEFAULT_PAGE_SIZE_WORDS
    segment_words: int = 1 << 20
    protocol: str = "sw"
    detection: bool = True
    first_races_only: bool = False
    detector_fast_path: bool = True
    diff_write_detection: bool = False
    inline_instrumentation: bool = False
    consolidation_interval: int = 0
    policy: str = "round_robin"
    seed: int = 0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    fault_seed: int = 0
    retry_budget: int = DEFAULT_RETRY_BUDGET
    fault_plan: Optional[FaultPlan] = None
    crash_rate: float = 0.0
    crash_seed: int = 0
    crash_at: Tuple[Tuple[int, int], ...] = ()
    crash_recovery: bool = True
    master_failover: bool = False
    sharded_detection: bool = False
    coarse_filter: bool = True
    checkpoint: bool = False
    checkpoint_dir: Optional[str] = None
    checkpoint_delta: bool = False
    resume_from: Optional[str] = None
    mode: str = "online"
    trace_file: Optional[str] = None
    deadline_seconds: Optional[float] = None
    cost_model: CostModel = field(default_factory=CostModel)
    track_access_trace: bool = False

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.page_size_words % 8 != 0 or self.page_size_words <= 0:
            raise ValueError("page_size_words must be a positive multiple of 8")
        if self.segment_words % self.page_size_words != 0:
            raise ValueError("segment_words must be a multiple of the page size")
        if self.protocol not in ("sw", "mw"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.diff_write_detection and self.protocol != "mw":
            raise ValueError("diff_write_detection requires the multi-writer protocol")
        for name in ("loss_rate", "duplicate_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1): {rate}")
        if self.retry_budget < 1:
            raise ValueError("retry_budget must be at least 1 attempt")
        if not 0.0 <= self.crash_rate < 1.0:
            raise ValueError(f"crash_rate must be in [0, 1): {self.crash_rate}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds (--deadline) must be positive: "
                f"{self.deadline_seconds}")
        self.crash_at = tuple(sorted(set(
            (int(pid), int(gen)) for pid, gen in self.crash_at)))
        for pid, gen in self.crash_at:
            if not 0 <= pid < self.nprocs:
                raise ValueError(
                    f"crash_at pid {pid} out of range for nprocs={self.nprocs}")
            if pid == 0 and self.nprocs < 2:
                raise ValueError(
                    "crash_at cannot target P0 with nprocs=1: no surviving "
                    "process could be elected coordinator")
            if gen < 0:
                raise ValueError(f"crash_at generation must be >= 0: {gen}")
        for rule in CONFLICTS:
            if rule.applies(self):
                raise ConfigError(rule.reason.format(mode=self.mode))
        if self.mode == "record":
            # A record run never detects: that is the whole point of the
            # phase split.  Force it off rather than making every caller
            # remember to.
            self.detection = False

    @property
    def num_pages(self) -> int:
        return self.segment_words // self.page_size_words

    def effective_fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan in force: an explicit ``fault_plan`` wins, else
        a uniform plan from the scalar rates, else ``None`` (no faults)."""
        if self.fault_plan is not None:
            return self.fault_plan if self.fault_plan.enabled else None
        return plan_from_rates(self.loss_rate, self.duplicate_rate,
                               self.reorder_rate, self.fault_seed)

    @property
    def faults_enabled(self) -> bool:
        """True when any traffic can experience injected faults (and the
        reliable channel is therefore in the send path)."""
        return self.effective_fault_plan() is not None

    def effective_crash_plan(self) -> Optional[CrashPlan]:
        """The crash plan in force, or ``None`` (no crashes)."""
        return plan_from_options(self.crash_rate, self.crash_seed,
                                 self.crash_at)

    @property
    def crashes_enabled(self) -> bool:
        """True when any node can crash (and the recovery machinery is
        therefore armed)."""
        return self.effective_crash_plan() is not None

    @property
    def checkpointing_enabled(self) -> bool:
        """True when barrier checkpoints are taken (explicitly requested
        or implied by a checkpoint directory, ``checkpoint_delta``, or a
        resume: a resumed run re-takes checkpoints so its virtual-time
        write charges line up with the original checkpointed run's)."""
        return (self.checkpoint or self.checkpoint_dir is not None
                or self.checkpoint_delta or self.resume_from is not None)
