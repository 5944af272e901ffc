"""Canonical, hash-framed synchronization-order traces (two-phase mode).

The online detector pays its full cost on the live run.  The two-phase
pipeline (``--mode record`` / ``--mode detect-offline``) splits that cost
the way Ronsse & De Bosschere's non-intrusive record/replay scheme does
(PAPERS.md): the *record* run executes with detection off and logs only
the synchronization order — the per-lock grant sequence, the per-generation
barrier arrival order, and the delivery order of the synchronization-level
messages — while the *replay* run re-executes the application steered by
the trace with the full detector enabled, producing reports byte-identical
to a monolithic online run of the same seed and configuration.

Why logging only synchronization order suffices: the simulation's
scheduler is deterministic and driven by yield counts, not virtual time,
so with the same seed and policy the interleaving is a function of the
program's synchronization structure alone.  Detection changes *virtual
time* (clock charges, extra bitmap traffic) but never the interleaving —
which is exactly the property the equivalence suite asserts.  The trace
therefore both *steers* the replay (the lock-grant gate in
``Synchronizer.lock_acquire``) and *verifies* it (arrival and delivery streams
raise :class:`~repro.errors.ReplayError` on the first divergence).

File format: one :func:`repro.durable.frame` of the canonical-JSON body,
published atomically and without a trailing newline.  Truncation or
corruption anywhere — including mid-hash — breaks the frame detectably, so
a damaged trace surfaces as a loud :class:`~repro.errors.TraceError` at
replay instead of silently steering the run somewhere else.

The lock-grant portion alone is the ROLT log of §7 (one pid sequence per
lock; barriers are symmetric and need none): :func:`attribute_races
<repro.replay.attribute.attribute_races>` attaches a recorder and an
enforcer as ``CVM.lock_order`` only, which reproduces the grant order under
a *different* scheduling seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import durable
from repro.errors import ConfigError, ReplayError, TraceError
from repro.net.reliable import DEFAULT_TIMEOUT_CYCLES
from repro.net.transport import DEFAULT_MAX_DATAGRAM
from repro.sim.costmodel import CostCategory

#: Bump when the trace schema changes incompatibly.
TRACE_FORMAT_VERSION = 1

#: Message tags whose send sequence is identical with detection on and
#: off: the base DSM synchronization and paging protocol.  Detection-side
#: traffic (bitmap rounds, shard scatter/reduce) and robustness traffic
#: (recovery, election, acks, retransmitted fragments) are excluded — the
#: replay run legitimately adds or lacks those, so recording them would
#: make the delivery streams incomparable.
SYNC_TAGS = frozenset({
    "lock_request", "lock_forward", "lock_grant", "event_set",
    "barrier_arrival", "barrier_release",
    "page_request", "page_forward", "page_reply",
})


def execution_digest(config, app_name: str) -> str:
    """Digest of every configuration field that shapes the *execution* —
    the interleaving and the message sequence — but none that only shape
    detection or accounting.

    A record run (detection off) and its replay (detection on) must
    produce the same digest, so detection-side fields
    (``first_races_only``, ``detector_fast_path``, sharding, ...) are
    deliberately excluded; crash fields are absent because the config
    layer refuses to compose crash injection with either mode.
    """
    plan = config.effective_fault_plan()
    plan_desc: Optional[Dict[str, Any]] = None
    if config.fault_plan is not None and plan is not None:
        plan_desc = {
            "default": dataclasses.asdict(plan.default),
            "by_tag": {tag: dataclasses.asdict(rates)
                       for tag, rates in sorted(plan.by_tag.items())},
            "seed": plan.seed,
            "reorder_delay_cycles": plan.reorder_delay_cycles,
        }
    fields = {
        "version": TRACE_FORMAT_VERSION,
        "app": app_name,
        "nprocs": config.nprocs,
        "protocol": config.protocol,
        "policy": config.policy,
        "seed": config.seed,
        "page_size_words": config.page_size_words,
        "segment_words": config.segment_words,
        # Former DsmConfig fields nothing ever set, hashed at their constant
        # values so traces recorded before their removal still replay.
        "max_datagram": DEFAULT_MAX_DATAGRAM,
        "fragmentable_messages": True,
        "loss_rate": config.loss_rate,
        "duplicate_rate": config.duplicate_rate,
        "reorder_rate": config.reorder_rate,
        "fault_seed": config.fault_seed,
        "retry_budget": config.retry_budget,
        "retransmit_timeout": DEFAULT_TIMEOUT_CYCLES,
        "fault_plan": plan_desc,
        "consolidation_interval": config.consolidation_interval,
    }
    return durable.content_hash(fields)


@dataclass
class SyncTrace:
    """One record run's complete synchronization order, plus the header
    that pins it to an execution (app, nprocs, seed..., config digest)."""

    app: str = ""
    nprocs: int = 0
    seed: int = 0
    policy: str = "round_robin"
    fault_seed: int = 0
    digest: str = ""
    #: Grant order per lock id (the ROLT log).
    lock_grants: Dict[int, List[int]] = field(default_factory=dict)
    #: Arrival order per barrier generation.
    barrier_arrivals: List[List[int]] = field(default_factory=list)
    #: Delivery order of :data:`SYNC_TAGS` messages, post-retransmit —
    #: one ``(tag, src, dst)`` per *logical* message, appended when the
    #: reliable channel has delivered every fragment.
    deliveries: List[Tuple[str, int, int]] = field(default_factory=list)

    # ---------------------------------------------------------------- #
    # Sizes and counts.
    # ---------------------------------------------------------------- #
    @property
    def total_grants(self) -> int:
        return sum(len(seq) for seq in self.lock_grants.values())

    @property
    def total_arrivals(self) -> int:
        return sum(len(gen) for gen in self.barrier_arrivals)

    @property
    def log_bytes(self) -> int:
        """Encoded size of the lock-grant order alone: one 32-bit pid per
        grant plus one id+length per lock — the ordering information a
        ROLT first run persists (§7), and why its overhead is minimal."""
        return 4 * self.total_grants + 8 * len(self.lock_grants)

    # ---------------------------------------------------------------- #
    # Canonical, framed serialization.
    # ---------------------------------------------------------------- #
    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": TRACE_FORMAT_VERSION,
            "app": self.app,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "policy": self.policy,
            "fault_seed": self.fault_seed,
            "digest": self.digest,
            "lock_grants": [[lid, list(seq)]
                            for lid, seq in sorted(self.lock_grants.items())],
            "barrier_arrivals": [list(gen) for gen in self.barrier_arrivals],
            "deliveries": [[tag, src, dst]
                           for tag, src, dst in self.deliveries],
        }

    def to_framed(self) -> str:
        return durable.frame(durable.canon(self.to_payload()))

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SyncTrace":
        if not isinstance(payload, dict):
            raise TraceError("trace body is not a JSON object")
        version = payload.get("version")
        if version != TRACE_FORMAT_VERSION:
            raise TraceError(
                f"trace format version {version!r} is not the supported "
                f"version {TRACE_FORMAT_VERSION}")
        required = ("app", "nprocs", "seed", "policy", "fault_seed",
                    "digest", "lock_grants", "barrier_arrivals",
                    "deliveries")
        missing = [key for key in required if key not in payload]
        if missing:
            raise TraceError(f"trace body missing fields: {missing}")
        return cls(
            app=payload["app"], nprocs=payload["nprocs"],
            seed=payload["seed"], policy=payload["policy"],
            fault_seed=payload["fault_seed"], digest=payload["digest"],
            lock_grants={int(lid): [int(p) for p in seq]
                         for lid, seq in payload["lock_grants"]},
            barrier_arrivals=[[int(p) for p in gen]
                              for gen in payload["barrier_arrivals"]],
            deliveries=[(str(tag), int(src), int(dst))
                        for tag, src, dst in payload["deliveries"]])

    @classmethod
    def parse_framed(cls, framed: str) -> "SyncTrace":
        """Validate the frame and decode the trace; raises
        :class:`TraceError` on a torn or corrupt file so replay fails
        loudly instead of silently steering a different execution."""
        body = durable.unframe(framed)
        if body is None:
            raise TraceError(
                "trace file tail torn or corrupt (content hash mismatch); "
                "re-run the record phase")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace body unparseable: {exc}")
        return cls.from_payload(payload)


def load_trace(path: str) -> SyncTrace:
    """Read and validate a trace file written by a record run."""
    return SyncTrace.parse_framed(
        durable.read_text(path, TraceError, "trace file"))


def write_trace(trace: SyncTrace, path: str) -> int:
    """Publish a trace file atomically; returns the byte count (the
    record run's flush cost input)."""
    return durable.publish(path, trace.to_framed(), TraceError,
                           "trace file")


def attach(system):
    """The controller of a two-phase run (``system.config.mode``), hooked
    to barrier arrivals and message deliveries; the caller makes it
    ``system.lock_order``.  Detect-offline loads and frame-checks the trace
    file here, so corrupt files fail before any work (the config-digest
    check happens in ``begin_run``, where the app name is known).  The
    delivery hook goes on ``system.net`` — the reliable channel when
    faults are configured — so a lossy record run captures
    *post-retransmit* delivery order and the bare transport's per-fragment
    sends never fire it."""
    config = system.config
    if config.mode == "record":
        controller = SyncTraceRecorder(system)
    else:
        controller = SyncTraceEnforcer(load_trace(config.trace_file), system)
    system.sync.barrier_state.order_hook = controller.on_barrier_arrival
    system.net.delivery_hook = controller.on_delivery
    return controller


class SyncTraceRecorder:
    """Attach to a record run (``--mode record``): passively logs the
    synchronization order.

    Implements the ``CVM.lock_order`` controller protocol (grants are
    never gated while recording) plus the barrier-arrival and
    message-delivery hooks.  Given the record run's ``system``
    (:func:`attach`), it keeps that run's configuration, scheduler, nodes
    and coordinator role — not the system, whose network and barrier
    state hold this object's hooks — and prices itself under
    ``CostCategory.RECORD``:
    ``CostModel.record_entry`` per captured entry on the acting pid's
    clock — the record run's only per-event online cost — and the
    per-byte flush cost when :meth:`end_run` writes the trace file.
    Without one (:func:`attribute_races
    <repro.replay.attribute.attribute_races>` logs grants only) it is free.
    """

    def __init__(self, system=None) -> None:
        self.trace = SyncTrace()
        #: Entries captured (the record run's per-entry cost multiplier).
        self.entries_recorded = 0
        #: Size of the flushed trace file (0 until :meth:`end_run`).
        self.trace_bytes = 0
        self._priced = system is not None
        if self._priced:
            self._config = system.config
            self._scheduler = system.scheduler
            self._nodes = system.nodes
            self._coordinator = system.coordinator

    def _captured(self, pid: int) -> None:
        """One more entry, captured by ``pid``'s action."""
        self.entries_recorded += 1
        if self._priced:
            self._nodes[pid].clock.advance(
                self._config.cost_model.record_entry, CostCategory.RECORD)

    # -- lock controller protocol ------------------------------------- #
    def may_acquire(self, lid: int, pid: int) -> bool:
        return True

    def expected_next(self, lid: int):
        return None  # no constraint while recording

    def record_grant(self, lid: int, pid: int) -> None:
        self.trace.lock_grants.setdefault(lid, []).append(pid)
        # The running process does the work: the acquirer of an idle
        # lock, the releaser handing a held one to its next waiter.
        self._captured(self._scheduler.current() if self._priced else pid)

    # -- barrier-arrival hook ------------------------------------------ #
    def on_barrier_arrival(self, generation: int, pid: int) -> None:
        while len(self.trace.barrier_arrivals) <= generation:
            self.trace.barrier_arrivals.append([])
        self.trace.barrier_arrivals[generation].append(pid)
        self._captured(pid)

    # -- delivery hook (post-retransmit, one per logical message) ------ #
    def on_delivery(self, tag: str, src: int, dst: int) -> None:
        if tag not in SYNC_TAGS:
            return
        self.trace.deliveries.append((tag, src, dst))
        self._captured(src)

    # -- the record run's start and end -------------------------------- #
    def begin_run(self, app_name: str) -> None:
        """Stamp the trace with its execution header."""
        config = self._config
        t = self.trace
        t.app = app_name
        t.nprocs = config.nprocs
        t.seed = config.seed
        t.policy = config.policy
        t.fault_seed = config.fault_seed
        t.digest = execution_digest(config, app_name)

    def end_run(self) -> None:
        """End-of-run trace flush: frame and persist the file, and price
        the serialization on the coordinator's clock (it owns the run's
        durable artifacts, like the role journal)."""
        config = self._config
        self.trace_bytes = write_trace(self.trace, config.trace_file)
        self._nodes[self._coordinator.pid].clock.advance(
            config.cost_model.record_flush_per_byte * self.trace_bytes,
            CostCategory.RECORD)

    def stats(self) -> Dict[str, int]:
        """``RunResult.record_stats`` of a record run."""
        t = self.trace
        return {"entries_recorded": self.entries_recorded,
                "lock_grants": t.total_grants,
                "barrier_arrivals": t.total_arrivals,
                "deliveries": len(t.deliveries),
                "trace_bytes": self.trace_bytes}


class SyncTraceEnforcer:
    """Attach to a replay run (``--mode detect-offline``): steers the
    lock-grant order through the recorded per-lock sequence, regardless of
    the replay's scheduling policy or seed, and *verifies* the
    barrier-arrival and message-delivery streams position by position,
    raising :class:`~repro.errors.ReplayError` on the first divergence.
    ``system`` is the detect-offline run (:func:`attach`), whose
    configuration :meth:`begin_run` holds the trace header to."""

    def __init__(self, trace: SyncTrace, system=None):
        self.trace = trace
        self._config = system.config if system is not None else None
        #: Next unconsumed position per recorded lock.
        self._grant_pos: Dict[int, int] = {lid: 0 for lid in trace.lock_grants}
        #: Next unconsumed position per barrier generation.
        self._arrival_pos: Dict[int, int] = {}
        self._delivery_pos = 0
        self.grants_replayed = 0
        self.arrivals_verified = 0
        self.deliveries_verified = 0

    # -- lock controller protocol --------------------------------------- #
    def expected_next(self, lid: int) -> Optional[int]:
        """Pid that must receive the next grant of ``lid`` (None when the
        lock has no recorded constraint left)."""
        seq = self.trace.lock_grants.get(lid)
        if seq is None:
            return None
        pos = self._grant_pos[lid]
        return seq[pos] if pos < len(seq) else None

    def may_acquire(self, lid: int, pid: int) -> bool:
        expected = self.expected_next(lid)
        return expected is None or expected == pid

    def record_grant(self, lid: int, pid: int) -> None:
        expected = self.expected_next(lid)
        if expected is not None and expected != pid:
            raise ReplayError(
                f"replay diverged on lock {lid}: grant "
                f"#{self._grant_pos[lid]} went to P{pid}, recorded "
                f"P{expected}")
        if lid in self._grant_pos:
            self._grant_pos[lid] += 1
        self.grants_replayed += 1

    # -- barrier-arrival verification ---------------------------------- #
    def on_barrier_arrival(self, generation: int, pid: int) -> None:
        gens = self.trace.barrier_arrivals
        if generation >= len(gens):
            raise ReplayError(
                f"replay diverged: barrier generation {generation} was "
                f"never recorded (trace ends at generation {len(gens) - 1})")
        pos = self._arrival_pos.get(generation, 0)
        recorded = gens[generation]
        if pos >= len(recorded):
            raise ReplayError(
                f"replay diverged: extra arrival of P{pid} at barrier "
                f"generation {generation} (trace recorded "
                f"{len(recorded)} arrivals)")
        if recorded[pos] != pid:
            raise ReplayError(
                f"replay diverged: arrival #{pos} at barrier generation "
                f"{generation} was P{pid}, recorded P{recorded[pos]}")
        self._arrival_pos[generation] = pos + 1
        self.arrivals_verified += 1

    # -- delivery-stream verification ---------------------------------- #
    def on_delivery(self, tag: str, src: int, dst: int) -> None:
        if tag not in SYNC_TAGS:
            return
        stream = self.trace.deliveries
        pos = self._delivery_pos
        if pos >= len(stream):
            raise ReplayError(
                f"replay diverged: delivery #{pos} "
                f"({tag!r} P{src}->P{dst}) past the end of the recorded "
                f"stream ({len(stream)} deliveries)")
        want = stream[pos]
        if want != (tag, src, dst):
            raise ReplayError(
                f"replay diverged at delivery #{pos}: got {tag!r} "
                f"P{src}->P{dst}, recorded {want[0]!r} "
                f"P{want[1]}->P{want[2]}")
        self._delivery_pos = pos + 1
        self.deliveries_verified += 1

    def fully_consumed(self) -> bool:
        """True when every recorded entry was replayed and verified."""
        for lid, recorded in self.trace.lock_grants.items():
            if self._grant_pos[lid] < len(recorded):
                return False
        for gen, recorded in enumerate(self.trace.barrier_arrivals):
            if self._arrival_pos.get(gen, 0) < len(recorded):
                return False
        return self._delivery_pos >= len(self.trace.deliveries)

    # -- the replay run's start and end -------------------------------- #
    def begin_run(self, app_name: str) -> None:
        """Refuse to replay a trace recorded under a different execution
        configuration: the config digest pins every execution-shaping
        field (app, nprocs, seed, policy, network-fault schedule...), so
        a mismatch means the trace would steer a different program."""
        config = self._config
        trace = self.trace
        digest = execution_digest(config, app_name)
        if digest != trace.digest:
            raise ConfigError(
                "--mode detect-offline: the trace (--trace-file) was "
                "recorded under a different execution configuration: "
                f"recorded app={trace.app!r} nprocs={trace.nprocs} "
                f"seed={trace.seed} policy={trace.policy!r} "
                f"fault_seed={trace.fault_seed}; this run has "
                f"app={app_name!r} nprocs={config.nprocs} "
                f"seed={config.seed} policy={config.policy!r} "
                f"fault_seed={config.fault_seed} (config digest "
                f"{trace.digest} != {digest}); re-record with --mode "
                "record under this configuration or fix the flags")

    def end_run(self) -> None:
        """A replay that finished without consuming the whole trace means
        the executions disagree — fail, don't under-report."""
        if not self.fully_consumed():
            remaining_grants = (self.trace.total_grants
                                - self.grants_replayed)
            remaining_arrivals = (self.trace.total_arrivals
                                  - self.arrivals_verified)
            remaining_deliveries = (len(self.trace.deliveries)
                                    - self._delivery_pos)
            raise ReplayError(
                "replay ended before consuming the recorded trace: "
                f"{remaining_grants} grant(s), {remaining_arrivals} "
                f"arrival(s) and {remaining_deliveries} deliver(ies) "
                "were never replayed")

    def stats(self) -> Dict[str, int]:
        """``RunResult.record_stats`` of a detect-offline run."""
        return {"grants_replayed": self.grants_replayed,
                "arrivals_verified": self.arrivals_verified,
                "deliveries_verified": self.deliveries_verified}
