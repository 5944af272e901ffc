"""Synchronization-object state: locks and barriers.

These classes hold pure state (holder, queues, arrival bookkeeping); the
message traffic, clock reconciliation and consistency-information exchange
that happen at acquire/release/barrier live in :mod:`repro.dsm.cvm`, which
drives them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.dsm.vector_clock import VectorClock
from repro.errors import SynchronizationError


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
    times.  By default the master role is pinned to process 0, as in the
    paper (the barrier master runs the race-detection analysis); whichever
    process arrives last executes the master's work on the master's virtual
    clock.  With ``failover`` enabled the master is an elected *coordinator
    role* owned by :mod:`repro.dsm.coordinator`: ``master`` then varies by
    generation (it is reassigned to the lowest live pid when the current
    coordinator dies) and arrival consistency horizons are retained so a
    newly elected coordinator can re-solicit what the dead one knew.
    """

    def __init__(self, nprocs: int, master: int = 0,
                 failover: bool = False):
        self.nprocs = nprocs
        self.master = master
        #: Whether the master is an elected, migratable role (see
        #: ``repro.dsm.coordinator``).  Off: the master is pinned and
        #: cannot be declared dead, exactly the legacy behaviour.
        self.failover = failover
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
        self.barriers_completed = 0
        #: Processes the master declared dead (crash recovery) during the
        #: current generation; cleared at every reset.  Diagnostic state:
        #: the recovery protocol itself lives in ``repro.dsm.cvm``.
        self.dead_this_generation: Set[int] = set()
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

    def declare_dead(self, pid: int) -> None:
        """Record that the master's virtual-time timeout expired for
        ``pid`` this generation (the node missed the barrier and recovery
        was initiated).  The *current* master can only be declared dead
        under failover — the election re-homes the role first, so by the
        time the old master is declared dead ``self.master`` already names
        its successor."""
        if pid == self.master and not self.failover:
            raise SynchronizationError(
                "the barrier master cannot be declared dead "
                "(enable master failover with --master-failover "
                "/ DsmConfig.master_failover)")
        self.dead_this_generation.add(pid)

    def shard_owners(self, crashed) -> List[int]:
        """Owner pids for a sharded detection pass this generation
        (``--sharded-detection``): the coordinator first (it is the reduce
        root), then every other live arriver in pid order.

        ``crashed`` names pids that crashed during the closing epoch —
        they recovered at arrival but are conservatively not trusted with
        shard ownership (their detection metadata may be the part that
        was lost).
        """
        dead = set(crashed) | self.dead_this_generation
        return [self.master] + [p for p in sorted(self.arrival_times)
                                if p != self.master and p not in dead]

    def reassign_master(self, pid: int) -> None:
        """Move the master role to ``pid`` (election outcome).  Only legal
        under failover; the pinned-master configuration never migrates."""
        if not self.failover:
            raise SynchronizationError(
                "the barrier master is pinned (enable master failover "
                "with --master-failover / DsmConfig.master_failover)")
        if not 0 <= pid < self.nprocs:
            raise SynchronizationError(
                f"cannot elect P{pid} as barrier master "
                f"(nprocs={self.nprocs})")
        self.master = pid

    def reset_for_next_generation(self) -> None:
        self.generation += 1
        self.barriers_completed += 1
        self.arrived.clear()
        self.arrival_times.clear()
        self.horizons.clear()
        self.dead_this_generation.clear()
