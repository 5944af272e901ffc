"""Crash injection, node recovery and coordinator failover.

The simulation models crashes *by accounting*: the deterministic
scheduler guarantees that re-executing a node from its last
barrier-consistent state reproduces exactly the same computation, so
a recovered run's Python state needs no rewinding — a crash costs
virtual time (restart + state restoration + re-execution debt),
recovery traffic, and, when checkpointing is off, the node's
current-epoch detection metadata (its word bitmaps never leave the
node until the bitmap round, so they die with it; the page-level
notices survive on already-sent synchronization messages).  With
``crash_recovery=False`` the crash is fail-stop instead: the
simulated process unwinds with :class:`NodeCrashed` and the
survivors' next barrier deadlocks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dsm.coordinator import elect_coordinator
from repro.dsm.node import Node
from repro.dsm.sync import BarrierState
from repro.errors import NodeCrashed
from repro.sim.costmodel import CostCategory
from repro.sim.crash import (DEFAULT_CRASH_DETECT_TIMEOUT,
                             DEFAULT_ELECTION_TIMEOUT, CrashRecord)


class Recovery:
    """The crash points of one system and the protocols that absorb a
    crash.  ``system`` is a weak proxy of the :class:`repro.dsm.cvm.CVM`
    facade: its injector (``system._crasher``) decides, its
    ``crash_stats`` count.  The siblings it uses are taken from it here;
    only the synchronizer (which holds this object) and the checkpoint
    manager (built after it) are reached through it."""

    def __init__(self, system) -> None:
        self.system = system
        self.config = system.config
        self.crasher = system._crasher
        self.stats = system.crash_stats
        self.nodes = system.nodes
        self.coordinator = system.coordinator
        self.directory = system.directory
        self.sizer = system.sizer
        self.net = system.net
        self.store = system.store

    def live_and_crashed(self) -> Tuple[List[int], List[int]]:
        """The pids without and with a pending crash this barrier
        generation (a crash is absorbed at the node's departure)."""
        crashed = [n.pid for n in self.nodes if n.crashed is not None]
        return [n.pid for n in self.nodes if n.crashed is None], crashed

    def maybe_crash(self, pid: int, kind: str,
                    generation: Optional[int] = None) -> None:
        """Evaluate one potential crash point for ``pid``.  No-op without a
        crash plan; one crash per node per epoch (a node with a pending
        unrecovered crash is immune until its next barrier)."""
        if self.crasher is None:
            return
        node = self.nodes[pid]
        if node.crashed is not None:
            self.stats.pending_crash_skips += 1
            return
        doomed = (generation is not None
                  and self.crasher.scheduled_at(pid, generation))
        if not doomed:
            doomed = self.crasher.decide(pid, kind)
        if not doomed:
            return
        role = self.coordinator
        if pid == role.pid and (not role.failover or self.config.nprocs < 2):
            # Without failover the coordinator runs the detector and the
            # recovery protocol and cannot crash; with nprocs=1 there is
            # no possible successor either way.  Count the suppression so
            # rate sweeps can report how often immunity mattered.
            self.stats.master_crashes_suppressed += 1
            return
        self._crash_node(node, kind)

    def crash_owner(self, pid: int) -> bool:
        """The mid-phase crash point of one live shard owner, on the
        independent "detect" schedule; a hit crashes the owner and
        recovers it exactly like a barrier-arrival crash."""
        if not self.crasher.decide(pid, "detect"):
            return False
        node = self.nodes[pid]
        self._crash_node(node, "detect")
        self.charge_node_recovery(node)
        return True

    def _crash_node(self, node: Node, kind: str) -> None:
        node.crashed = CrashRecord(kind=kind, time=node.clock.now,
                                   epoch=node.epoch)
        self.stats.record_crash(kind)
        if not self.config.crash_recovery:
            raise NodeCrashed(node.pid, kind, node.clock.now)

    def charge_node_recovery(self, node: Node) -> None:
        """Recovery accounting, run at the crashed node's next barrier
        arrival (all charges under ``CostCategory.RECOVERY``, which stays
        out of the overhead breakdown).

        With checkpointing: restore the latest snapshot (restore cost
        proportional to its serialized size) and re-execute from the
        checkpoint cut — determinism regenerates the post-checkpoint
        metadata exactly, so nothing is lost.  Without: refetch every valid
        page copy from its manager over ``system.net`` — the reliable
        channel when faults are enabled, so recovery traffic survives a
        lossy network too — re-execute the whole epoch, and mark the
        node's current-epoch intervals *lost* — their bitmaps are
        unrecoverable and the detector degrades those checks to explicit
        unverifiable reports.
        """
        checkpoints = self.system.checkpoints
        rec = node.crashed
        clock = node.clock
        cm = self.config.cost_model
        clock.advance(cm.crash_restart, CostCategory.RECOVERY)
        if checkpoints is not None:
            snap = checkpoints.latest(node.pid)
            nbytes = snap.nbytes if snap is not None else 0
            clock.advance(cm.checkpoint_restore_per_byte * nbytes,
                          CostCategory.RECOVERY)
            restart_point = node.last_checkpoint_time
            self.stats.recoveries_from_checkpoint += 1
        else:
            sizer = self.sizer
            for page_id in sorted(node.pages):
                copy = node.pages[page_id]
                if not copy.valid:
                    continue
                src = self.directory.manager_of(page_id)
                if src == node.pid:
                    continue
                msg = self.net.send(
                    "recovery_page", src, node.pid, None,
                    sizer.ints(2) + sizer.page_data(), clock,
                    category=CostCategory.RECOVERY, fragmentable=True)
                clock.wait_until(msg.arrival_time)
            table = self.store.by_pid().get(node.pid, {})
            for stored in table.values():
                if stored.epoch == node.epoch and not stored.lost:
                    stored.lost = True
                    self.stats.intervals_lost += 1
            if not node.current.lost:
                node.current.lost = True
                self.stats.intervals_lost += 1
            restart_point = node.epoch_start_time
            self.stats.recoveries_without_checkpoint += 1
        # Re-execution debt: the work between the restart point and the
        # crash is done twice; the second pass is recovery overhead.
        clock.advance(max(0.0, rec.time - restart_point),
                      CostCategory.RECOVERY)

    def declare_deaths(self, bar: BarrierState, master_clock) -> None:
        """Master-side half of the recovery protocol, run before the
        barrier analysis: any process with a pending crash missed the
        deadline, so the master waits out its virtual-time timeout past the
        last live arrival, declares the silent nodes dead, and sends each a
        recovery request over ``system.net`` — the reliable channel when
        faults are enabled, so recovery survives the same lossy network as
        everything else.  The dead node's effective arrival is then whatever is
        later — its self-recovered arrival, or recovery triggered by the
        master's request plus the node's crash-to-arrival span."""
        live, crashed = self.live_and_crashed()
        if not crashed:
            return
        role = self.coordinator
        arrivals = [t for p, t in bar.arrival_times.items()
                    if p not in crashed]
        deadline = ((max(arrivals) if arrivals else master_clock.now)
                    + DEFAULT_CRASH_DETECT_TIMEOUT)
        master_clock.wait_until(deadline)
        for p in crashed:
            role.declare_dead(p)
            self.stats.deaths_declared += 1
            rec = self.nodes[p].crashed
            msg = self.net.send(
                "recovery_request", role.pid, p, None,
                self.sizer.ints(2), master_clock,
                category=CostCategory.RECOVERY)
            arrived = bar.arrival_times[p]
            bar.arrival_times[p] = max(
                arrived, msg.arrival_time + (arrived - rec.time))
        if live:
            self._migrate_lock_managers(live[0], set(crashed), master_clock)

    def _migrate_lock_managers(self, new_mgr: int, dead: set,
                               master_clock) -> None:
        """Re-home every lock whose static manager pid was just declared
        dead onto ``new_mgr``, the lowest live pid.

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
        master = self.coordinator.pid
        sizer = self.sizer
        locks = self.system.sync.locks
        for lid in sorted(locks):
            st = locks[lid]
            if st.manager not in dead:
                continue
            st.manager = new_mgr
            self.stats.locks_migrated += 1
            if new_mgr != master:
                # Lock id + holder + queue snapshot + prepared grants
                # (pid + vector clock each).
                body = (sizer.ints(3 + len(st.queue))
                        + len(st.grant_box)
                        * (sizer.ints(1) + sizer.vector_clock()))
                self.net.send("lock_migrate", master, new_mgr, None,
                              body, master_clock,
                              category=CostCategory.RECOVERY)

    def coordinator_failover(self, bar: BarrierState) -> None:
        """Election plus detection-state migration, run before the barrier
        analysis when the coordinator is among this epoch's crashed nodes.

        Protocol (all charges and traffic under ``CostCategory.FAILOVER``,
        which stays out of the overhead breakdown):

        1. The survivors time out on the coordinator's silence past the
           last live arrival (``DEFAULT_ELECTION_TIMEOUT``, overlapping —
           not stacking with — the death-declaration timeout) and hold
           the deterministic rank election: lowest live pid wins.
        2. Each survivor sends its vote to the winner; the winner announces
           the outcome to the rest.
        3. The winner fetches the coordinator journal from stable
           storage, pays the restore cost, and replays it into a new
           detector (:meth:`CoordinatorRole.install_from_journal`, handed
           the dead holder's last checkpoint section to fill in a torn
           tail); the role's pid, the barrier master, is now the winner,
           so release and death-declaration run here.
        4. The closing epoch's in-flight interval/write-notice metadata is
           re-solicited from every process's recorded arrival horizon —
           the same payloads the old master absorbed on the arrival
           messages — so the new coordinator's clock dominates every
           arrival before ``release_vc`` is computed.  The records
           themselves live in the global store (they are regenerated
           deterministically by recovery re-execution), which is why the
           crash-free race reports come out byte-identical.
        """
        system = self.system
        role = self.coordinator
        sync = system.sync
        net = self.net
        sizer = self.sizer
        cm = self.config.cost_model
        old = role.pid
        live, _crashed = self.live_and_crashed()
        winner = elect_coordinator(old, live, self.config.nprocs)
        new_node = self.nodes[winner]
        clock = new_node.clock
        live_arrivals = [t for p, t in bar.arrival_times.items()
                         if p in live]
        start = max(live_arrivals) if live_arrivals else clock.now
        clock.wait_until(start + DEFAULT_ELECTION_TIMEOUT)
        # The survivors besides the winner (the dead coordinator, having a
        # pending crash, is not among them).
        voters = [p for p in sorted(bar.arrival_times)
                  if p != winner and p in live]
        for p in voters:
            msg = net.send("election_vote", p, winner, None,
                           sizer.ints(3), clock,
                           category=CostCategory.FAILOVER)
            clock.wait_until(msg.arrival_time)
        for p in voters:
            net.send("coordinator_announce", winner, p, None,
                     sizer.ints(2), clock,
                     category=CostCategory.FAILOVER)
        jbytes = role.journal_bytes
        msg = net.send("coordinator_state", old, winner, None,
                       sizer.ints(2) + jbytes, clock,
                       category=CostCategory.FAILOVER,
                       fragmentable=True)
        clock.wait_until(msg.arrival_time)
        clock.advance(cm.checkpoint_restore_per_byte * jbytes,
                      CostCategory.FAILOVER)
        snap = (system.checkpoints.latest(old)
                if system.checkpoints is not None else None)
        role.install_from_journal(
            winner, snap.data.get("coordinator") if snap else None)
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
            summaries, count, body, _rb, digest_bytes = \
                sync.consistency_payload(vc0, horizon, pids=(p,))
            net.send("resolicit_request", winner, p, None,
                     sizer.ints(2) + sizer.vector_clock(),
                     clock, category=CostCategory.FAILOVER)
            msg = net.send("resolicit_reply", p, winner, count,
                           body, clock,
                           category=CostCategory.FAILOVER,
                           fragmentable=True)
            sync.charge_digests(digest_bytes, clock)
            clock.wait_until(msg.arrival_time)
            sync.apply_consistency(new_node, summaries, horizon)
            role.stats.records_resolicited += count
