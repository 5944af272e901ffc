"""Synchronization: locks, events and the barrier, state and protocol.

:class:`LockState`, :class:`EventState` and :class:`BarrierState` hold the
per-object state (holder, queues, arrival bookkeeping);
:class:`Synchronizer` drives them.  Its operations implement lazy release
consistency exactly as §3.1 describes: every acquire and release opens a
new interval; lock grants and barrier messages piggyback the interval
records (write notices, and with detection on, read notices) that the
receiver has not yet seen; write notices invalidate stale page copies at
the acquirer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.dsm.checkpoint import barrier_cut
from repro.dsm.interval import Interval
from repro.dsm.node import Node
from repro.dsm.vector_clock import VectorClock
from repro.errors import ReplayError, SynchronizationError
from repro.sim.costmodel import CostCategory

#: What one owner's records ``(seen, horizon]`` add to a consistency
#: payload: ``(pid, records, body bytes, read-notice bytes, digest bytes,
#: written pages)`` — the records' wire figures summed and their write
#: notices united (see :meth:`Synchronizer.consistency_payload`).
RangeSummary = Tuple[int, int, int, int, int, Set[int]]


@dataclass
class GrantInfo:
    """What a lock grant carries to the next holder: the releaser's pid,
    the vector clock of the released interval (the consistency horizon the
    acquirer must catch up to), and the receiver-side arrival time of the
    grant message."""

    releaser: int
    release_vc: VectorClock
    arrival_time: float


class LockState:
    """One exclusive lock.

    CVM assigns each lock a static manager process; acquiring an idle lock
    costs a request/forward/grant message exchange, and a contended acquire
    waits in FIFO order for the holder's release.  The released interval's
    vector clock rides on the grant (LRC's piggybacked consistency data).
    """

    def __init__(self, lid: int, manager: int):
        self.lid = lid
        self.manager = manager
        self.holder: Optional[int] = None
        self.queue: Deque[int] = deque()
        self.last_releaser: Optional[int] = None
        self.last_release_vc: Optional[VectorClock] = None
        #: Grants prepared by a releaser for a blocked waiter, consumed when
        #: the waiter is rescheduled.
        self.grant_box: Dict[int, GrantInfo] = {}
        #: Total acquires, for statistics.
        self.acquires = 0
        #: Acquires that had to queue behind a holder.
        self.contended = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LockState(lid={self.lid}, holder={self.holder}, "
                f"queue={list(self.queue)})")


class EventState:
    """A one-shot event flag: CVM-style generalized synchronization.

    ``set`` is a release (the setter's consistency horizon is recorded);
    ``wait`` is an acquire (blocks until set, then catches up to the
    horizon).  Waiting after the set is immediate but still an acquire —
    the ordering edge is what matters for the detector.
    """

    def __init__(self, eid: int):
        self.eid = eid
        self.is_set = False
        self.setter: Optional[int] = None
        self.set_vc: Optional[VectorClock] = None
        self.set_time: float = 0.0
        self.waiters: List[int] = []


class BarrierState:
    """The (single, reusable) global barrier.

    Arrival order, per-arrival clock times and the master's release payload
    are recorded per *generation* so the barrier can be reused any number of
    times.  Whichever process arrives last executes the master's work on
    the master's virtual clock.  The master itself is not held here: it is
    the :class:`~repro.dsm.coordinator.CoordinatorRole`'s pid, pinned to
    process 0 as in the paper (the barrier master runs the race-detection
    analysis) unless failover re-elects it.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        #: Barriers completed so far: the number of the generation being
        #: waited at, the epoch being executed and the checkpoint cut
        #: taken at its departure.
        self.generation = 0
        self.arrived: List[int] = []
        self.arrival_times: Dict[int, float] = {}
        #: Per-arrival consistency horizons (the vector clock each process
        #: closed its epoch with), recorded only under failover: the
        #: election's state re-solicitation replays them to the new
        #: coordinator.  Cleared at every reset.
        self.horizons: Dict[int, VectorClock] = {}
        #: Release-time info stored for each departing process:
        #: (global vc snapshot, receiver-side arrival time of release msg).
        self.release_box: Dict[int, Tuple[VectorClock, float]] = {}
        #: Optional ``(generation, pid)`` callback fired at every arrival —
        #: the two-phase pipeline's arrival-order capture point
        #: (:class:`~repro.replay.trace.SyncTraceRecorder` appends to the
        #: trace, :class:`~repro.replay.trace.SyncTraceEnforcer` verifies
        #: the replayed order).  ``None`` (default) costs nothing.
        self.order_hook = None

    def arrive(self, pid: int, now: float) -> bool:
        """Record an arrival; True if this was the last process in."""
        if pid in self.arrived:
            raise SynchronizationError(
                f"P{pid} arrived twice at barrier generation "
                f"{self.generation}")
        self.arrived.append(pid)
        self.arrival_times[pid] = now
        if self.order_hook is not None:
            self.order_hook(self.generation, pid)
        return len(self.arrived) == self.nprocs

    def reset_for_next_generation(self) -> None:
        self.generation += 1
        self.arrived.clear()
        self.arrival_times.clear()
        self.horizons.clear()


class Synchronizer:
    """The synchronization operations of one system, on the state above.
    ``system`` is a weak proxy of the :class:`repro.dsm.cvm.CVM` facade,
    on which the five operations applications reach are bound under the
    same names — callers look them up there.  The siblings it uses are
    taken from it here; only ``lock_order``, which a caller may replace
    after construction, and the checkpoint cut are reached through it."""

    def __init__(self, system) -> None:
        self.system = system
        self.config = config = system.config
        self.scheduler = system.scheduler
        self.sizer = system.sizer
        self.traffic = system.transport.stats
        self.net = system.net
        self.store = system.store
        self.protocol = system.protocol
        self.nodes = system.nodes
        self.recovery = system.recovery
        self.coordinator = system.coordinator
        self._crasher = system._crasher
        self.locks: Dict[int, LockState] = {}
        self.events: Dict[int, EventState] = {}
        self.barrier_state = BarrierState(config.nprocs)
        # Two-level detection filter: when on (and detecting), every
        # consistency payload also carries the coarse access digests the
        # filter consults, priced by charge_digests at each ship site.
        self._coarse = config.detection and config.coarse_filter

    # ------------------------------------------------------------------ #
    # Interval helpers and consistency shipping.
    # ------------------------------------------------------------------ #
    def _close_interval(self, node: Node) -> None:
        self.protocol.on_interval_closed(node, node.close_interval())

    def record_bytes(self, recs: Iterable[Interval]) -> Tuple[int, int, int]:
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

    def consistency_payload(
            self, have: VectorClock, upto: Optional[VectorClock],
            pids: Optional[Iterable[int]] = None,
            ranges: Optional[Dict[Tuple[int, int, int], RangeSummary]] = None,
    ) -> Tuple[List[RangeSummary], int, int, int, int]:
        """What a process with clock ``have`` is missing up to horizon
        ``upto`` (nothing when ``upto`` is ``None``: a bare vector clock),
        of the owners ``pids`` only when given: one summary per owner
        range that holds a record, and (records, body bytes, read-notice
        bytes, coarse-digest bytes) summed over them.

        ``ranges`` caches the summaries by ``(pid, seen, horizon)``; the
        barrier release pass shares one across its receivers, so a range
        that several receivers' clocks name is summarized once.  Every
        other ship site takes a fresh one (the default)."""
        body = self.sizer.vector_clock()
        if upto is None:
            return [], 0, body, 0, 0
        if ranges is None:
            ranges = {}
        have_entries, upto_entries = have.entries, upto.entries
        out: List[RangeSummary] = []
        count = read_bytes = digest_bytes = 0
        for pid in range(len(upto_entries)) if pids is None else pids:
            seen, horizon = have_entries[pid], upto_entries[pid]
            if horizon <= seen:
                continue
            key = (pid, seen, horizon)
            summary = ranges.get(key)
            if summary is None:
                summary = ranges[key] = self._summarize(*key)
            if summary[1]:
                out.append(summary)
                count += summary[1]
                body += summary[2]
                read_bytes += summary[3]
                digest_bytes += summary[4]
        return out, count, body, read_bytes, digest_bytes

    def _summarize(self, pid: int, seen: int, horizon: int) -> RangeSummary:
        """The :data:`RangeSummary` of ``pid``'s records ``(seen,
        horizon]``, each closed record priced once (see
        :meth:`Interval.wire_figures`)."""
        sizer, with_reads, coarse = (self.sizer, self.config.detection,
                                     self._coarse)
        recs = self.store.records(pid, seen, horizon)
        body = read_bytes = digest_bytes = 0
        pages: Set[int] = set()
        for rec in recs:
            b, r, d = rec.wire_figures(sizer, with_reads, coarse)
            body += b
            read_bytes += r
            digest_bytes += d
            pages |= rec.write_pages
        return pid, len(recs), body, read_bytes, digest_bytes, pages

    def charge_digests(self, nbytes: int, clock) -> None:
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
            self.traffic.digest_bytes += nbytes

    def _ship_consistency(self, have: VectorClock,
                          upto: Optional[VectorClock], clock,
                          send: Optional[Tuple[str, int, int]] = None,
                          ranges: Optional[Dict] = None):
        """Ship, on ``clock``, what a process with clock ``have`` is
        missing up to ``upto`` (nothing when ``upto`` is ``None``: a bare
        vector clock) as one ``send = (tag, src, dst)`` message, and
        account its read notices and coarse digests.  Without ``send`` the
        records rode an earlier message and only the accounting is done.
        ``ranges`` is :meth:`consistency_payload`'s summary cache.
        Returns ``(summaries, message)``."""
        summaries, _count, body, read_bytes, digest_bytes = \
            self.consistency_payload(have, upto, ranges=ranges)
        msg = None
        if send is not None:
            tag, src, dst = send
            msg = self.net.send(tag, src, dst, None, body, clock,
                                fragmentable=True)
        if read_bytes:
            self.traffic.read_notice_bytes += read_bytes
        self.charge_digests(digest_bytes, clock)
        return summaries, msg

    def apply_consistency(self, node: Node, summaries: List[RangeSummary],
                          horizon: VectorClock) -> None:
        """Acquire-side application: invalidate per write notices, then
        merge the horizon clock."""
        self.apply_write_notices(node, summaries)
        node.vc.observe(horizon)

    def apply_write_notices(self, node: Node,
                            summaries: List[RangeSummary]) -> None:
        """Invalidate ``node``'s stale copies of the pages the records of
        ``summaries`` wrote, each page once — invalidation is idempotent,
        so this is the per-record application's outcome.  ``node``'s own
        records name pages it wrote itself and invalidate nothing."""
        pid = node.pid
        pages: Set[int] = set()
        for owner, _records, _body, _reads, _digests, written in summaries:
            if owner != pid:
                pages |= written
        if pages:
            self.protocol.apply_write_notice(node, pages)

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
            self.recovery.maybe_crash(pid, "send")  # the lock-request send
        st = self._lock_state(lid)
        order = self.system.lock_order
        if order is not None:
            # Replay enforcement gates only the free-lock fast path: when
            # the lock is held, the queue hand-off in ``_pick_next_waiter``
            # follows the recorded order instead.  A bounded spin converts
            # divergence (the recorded acquirer never shows up — possible
            # when a data race influenced synchronization control flow,
            # the §6.1 caveat about general races) into a clear error
            # instead of a livelock.
            spins = 0
            while (st.holder is None and not st.queue
                   and not order.may_acquire(lid, pid)):
                spins += 1
                if not self.scheduler.others_ready(pid) or spins > 20_000:
                    raise ReplayError(
                        f"replay diverged: P{pid} must wait for "
                        f"P{order.expected_next(lid)} to acquire "
                        f"lock {lid} first, but that grant never happens")
                self.scheduler.yield_control(pid)
        self._close_interval(node)
        if st.holder is None and not st.queue:
            st.holder = pid
            st.acquires += 1
            if order is not None:
                order.record_grant(lid, pid)
            summaries = self._charge_idle_lock_acquire(node, st)
            if st.last_release_vc is not None:
                self.apply_consistency(node, summaries, st.last_release_vc)
        else:
            st.queue.append(pid)
            st.contended += 1
            self.scheduler.block(pid, f"lock {lid}")
            grant = st.grant_box.pop(pid)
            node.clock.wait_until(grant.arrival_time)
            self.apply_consistency(
                node, self.consistency_payload(node.vc, grant.release_vc)[0],
                grant.release_vc)
        node.open_interval(f"lock({lid}) acquire")

    def _charge_idle_lock_acquire(self, node: Node,
                                  st: LockState) -> List[RangeSummary]:
        """Message accounting for acquiring an idle lock: request to the
        manager, forward to the last releaser, grant (with piggybacked
        consistency data) back to the requester.  Returns the summaries
        of the records the grant carried, for the acquirer to apply."""
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
        summaries, msg = self._ship_consistency(
            node.vc, st.last_release_vc, clock,
            ("lock_grant", granter, node.pid))
        clock.wait_until(msg.arrival_time)
        return summaries

    def lock_release(self, pid: int, lid: int) -> None:
        node = self.nodes[pid]
        if self._crasher is not None:
            self.recovery.maybe_crash(pid, "send")  # the grant/release send
        st = self._lock_state(lid)
        if st.holder != pid:
            raise SynchronizationError(
                f"P{pid} released lock {lid} held by {st.holder}")
        self._close_interval(node)
        st.last_releaser = pid
        st.last_release_vc = node.vc.copy()
        node.open_interval(f"lock({lid}) release")
        if st.queue:
            order = self.system.lock_order
            nxt = self._pick_next_waiter(st, order)
            st.holder = nxt
            st.acquires += 1
            if order is not None:
                order.record_grant(lid, nxt)  # the releaser does the work
            _summaries, msg = self._ship_consistency(
                self.nodes[nxt].vc, st.last_release_vc, node.clock,
                ("lock_grant", pid, nxt))
            st.grant_box[nxt] = GrantInfo(pid, st.last_release_vc,
                                          msg.arrival_time)
            self.scheduler.unblock(nxt)
        else:
            st.holder = None
        self.coordinator.maybe_consolidate(node)
        self.scheduler.yield_control(pid)

    @staticmethod
    def _pick_next_waiter(st: LockState, order) -> int:
        """FIFO normally; under replay enforcement, the recorded acquirer
        (who must already be queued, else we fall back to FIFO and the
        controller flags the divergence at its next check)."""
        if order is not None:
            expected = order.expected_next(st.lid)
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
            self.recovery.maybe_crash(pid, "send")  # the event_set send
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
        summaries, _msg = self._ship_consistency(node.vc, ev.set_vc,
                                                 node.clock)
        self.apply_consistency(node, summaries, ev.set_vc)
        node.open_interval(f"event({eid}) wait")

    # ------------------------------------------------------------------ #
    # Barrier.
    # ------------------------------------------------------------------ #
    def barrier(self, pid: int) -> None:
        node = self.nodes[pid]
        self.scheduler.yield_control(pid)
        bar = self.barrier_state
        if self._crasher is not None:
            self.recovery.maybe_crash(pid, "barrier",
                                      generation=bar.generation)
            if node.crashed is not None:
                # The node died earlier this epoch (or right here): it is
                # recovered before it can arrive, so its arrival message —
                # and the arrival time the master sees — carries the full
                # recovery cost.
                self.recovery.charge_node_recovery(node)
        self._close_interval(node)
        horizon = node.vc.copy()
        node.open_interval("barrier arrival")
        role = self.coordinator
        master_node = self.nodes[role.pid]
        if pid != role.pid:
            summaries, msg = self._ship_consistency(
                master_node.vc, horizon, node.clock,
                ("barrier_arrival", pid, role.pid))
            self.apply_consistency(master_node, summaries, horizon)
            arrival_now = msg.arrival_time
        else:
            arrival_now = node.clock.now
        if role.failover:
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
            self.recovery.coordinator_failover(bar)
        master_node = self.nodes[role.pid]
        master_clock = master_node.clock
        if self._crasher is not None:
            self.recovery.declare_deaths(bar, master_clock)
        master_clock.wait_until(max(bar.arrival_times.values()))
        role.run_epoch(self.store, bar.generation, master_clock)
        self._barrier_release_pass(bar, master_node)
        if role.failover:
            # Journal the role state after every completed detection pass:
            # a coordinator death next epoch restores from here, so the
            # journal is never staler than the last barrier-consistent cut.
            role.journal_state(master_clock, self.config.cost_model)
        # The epoch is fully checked: discard its trace information
        # (bitmaps, notices).  Also sweep the previous epoch's stragglers
        # (the empty arrival intervals closed at departure).
        self.store.discard_epoch(bar.generation)
        if bar.generation > 0:
            self.store.discard_epoch(bar.generation - 1)
        bar.reset_for_next_generation()

    def _barrier_release_pass(self, bar: BarrierState,
                              master_node: Node) -> None:
        """Release payloads: one per process, carrying what it is missing.
        The write notices are applied (invalidating stale copies) here,
        *before* the checked epoch's records are discarded; the blocked
        processes are not running, so mutating their page tables is safe,
        and their departure only needs the horizon clock.  Receivers whose
        clocks name the same range of an owner's records share one
        summary of it."""
        master = master_node.pid
        master_clock = master_node.clock
        release_vc = master_node.vc.copy()
        ranges: Dict[Tuple[int, int, int], RangeSummary] = {}
        for other in range(self.config.nprocs):
            if other == master:
                bar.release_box[other] = (release_vc, master_clock.now)
                continue
            node = self.nodes[other]
            summaries, msg = self._ship_consistency(
                node.vc, release_vc, master_clock,
                ("barrier_release", master, other), ranges)
            self.apply_write_notices(node, summaries)
            bar.release_box[other] = (release_vc, msg.arrival_time)

    def _barrier_depart(self, pid: int) -> None:
        node = self.nodes[pid]
        bar = self.barrier_state
        release_vc, arrival_time = bar.release_box.pop(pid)
        node.clock.wait_until(arrival_time)
        self._close_interval(node)  # the (empty) arrival interval
        # Write notices were already applied by the master's release pass;
        # departing only merges the horizon clock.
        node.vc.observe(release_vc)
        node.epoch = bar.generation
        node.open_interval("barrier depart")
        # The departure is the epoch's consistent cut: a recovered node's
        # crash is fully absorbed here, and (when enabled) each node
        # checkpoints itself before touching the new epoch.
        node.crashed = None
        node.epoch_start_time = node.clock.now
        barrier_cut(self.system, node, bar.generation)
