"""The elected coordinator role: barrier mastery as migratable state.

The paper pins the barrier master — and with it the entire race-detection
analysis — to process 0 (§6.2).  This module makes that coupling explicit
and, when ``master_failover`` is enabled, breakable: a
:class:`CoordinatorRole` owns everything the "master" means operationally
— which pid runs the barrier release, collects the epoch's interval
records, and holds the :class:`~repro.core.detector.RaceDetector` — and
the role can move.

Election is deterministic and rank-based: when the current coordinator is
found crashed at barrier-analysis time (the same virtual-time timeout that
declares any node dead), the surviving processes elect the **lowest live
pid**; if every process crashed this epoch, the lowest pid other than the
dead coordinator wins (it recovers at its own arrival like any crashed
node).  Determinism matters more than realism here: the same crash
schedule must elect the same coordinator on every run, or chaos-sweep
report comparisons would be meaningless.

State migration leans on the same barrier-consistent-cut argument as
checkpointing (PR 3): at every completed detection pass the role journals
the detector's full serialized state (reports, aggregate statistics, and
the cross-epoch deduplication keys) to stable storage, priced per byte
like a checkpoint write but under ``CostCategory.FAILOVER``.  On failover
the new coordinator fetches that journal, restores it into a freshly
constructed detector (``RaceDetector.serialize_state`` /
``restore_state`` — a real canonical-JSON round trip, not a Python object
handoff), and re-solicits the in-flight interval/write-notice metadata of
the closing epoch from the survivors' recorded arrival horizons.  All of
it is charged to ``CostCategory.FAILOVER``, which stays out of
``OVERHEAD_CATEGORIES`` — Tables 1–3 and Figures 3–4 are computed from
overhead categories only, so failover-off artifacts stay byte-identical.

With failover *off* (the default) the role is inert bookkeeping around the
pinned master: no journaling, no extra charges, no behavioural change —
the legacy configuration is byte-identical to builds without this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import durable
from repro.core.detector import RaceDetector
from repro.dsm.interval import Interval
from repro.dsm.node import IntervalStore
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel
from repro.sim.crash import counter_summary


def elect_coordinator(old_pid: int, live_pids: Sequence[int],
                      nprocs: int) -> int:
    """Deterministic rank-based election: the lowest live pid wins.

    ``live_pids`` are the processes with no pending crash this epoch (the
    old coordinator is never among them — it just failed).  If *everyone*
    crashed, the lowest pid other than the dead coordinator is elected;
    it recovers at its own barrier arrival exactly like any crashed node.
    """
    candidates = [p for p in live_pids if p != old_pid]
    if not candidates:
        candidates = [p for p in range(nprocs) if p != old_pid]
    if not candidates:
        raise ValueError(
            f"no process can replace coordinator P{old_pid} "
            f"(nprocs={nprocs})")
    return min(candidates)


@dataclass
class FailoverStats:
    """Failover counters for one run (all zero with failover off, and on
    any run whose coordinator never crashes)."""

    #: Elections held (one per coordinator crash observed at a barrier).
    elections_held: int = 0
    #: Serialized detector-state bytes moved to a new coordinator.
    state_bytes_migrated: int = 0
    #: Interval records replayed to a new coordinator from the survivors'
    #: recorded arrival horizons.
    records_resolicited: int = 0
    #: Coordinator-state journal writes (one per completed detection pass
    #: while failover is enabled).
    state_checkpoints: int = 0
    #: Total journaled coordinator-state bytes.
    state_checkpoint_bytes: int = 0
    #: Restores that found the journal torn or corrupt and fell back to
    #: the checkpointed coordinator section (or, lacking checkpoints, the
    #: in-memory state) instead of raising.
    journal_fallbacks: int = 0

    def summary(self) -> Dict[str, int]:
        """Flat summary used in logs and tests."""
        return counter_summary(self)


@dataclass
class ShardingStats:
    """Sharded-detection counters for one run (``--sharded-detection``;
    all zero with sharding off).  Tracks the distribution protocol only —
    detection verdicts and statistics are byte-identical to the
    centralized engine's and live in ``DetectorStats`` as usual."""

    #: Barrier epochs whose detection ran sharded to completion.
    epochs_sharded: int = 0
    #: Epochs that ran centralized although sharding was enabled (fewer
    #: than two owners, or no cross-process pair blocks).
    epochs_centralized: int = 0
    #: Non-empty shards handed to owners (coordinator's own included).
    shards_dispatched: int = 0
    #: Partner interval records delivered to shard owners (riding the
    #: scatter tree — counted once per receiving owner).
    records_shipped: int = 0
    #: Scatter-tree messages and bytes (assignments + record deltas).
    scatter_messages: int = 0
    bytes_scattered: int = 0
    #: Tree-reduce messages and bytes (candidate reports inbound).
    reduce_messages: int = 0
    bytes_reduced: int = 0
    #: Shard-local bitmap fetch messages and bytes.
    bitmap_fetch_messages: int = 0
    bitmap_fetch_bytes: int = 0
    #: Epochs that fell back to centralized detection because a shard
    #: owner crashed during the sharded phase.
    fallbacks_owner_crash: int = 0
    #: Epochs that fell back because a sharding exchange exhausted the
    #: reliable channel's retry budget.
    fallbacks_network: int = 0

    def summary(self) -> Dict[str, int]:
        """Flat summary used in logs and tests."""
        return counter_summary(self)

    def merge(self, other: "ShardingStats") -> None:
        """Fold a *staged* epoch's counters in.  The sharded phases stage
        their counters in a scratch instance and merge only after
        ``commit_sharded`` succeeds, so an epoch that falls back
        (owner crash, retry exhaustion) contributes nothing — the
        counters describe work that was actually committed, not work that
        was attempted and abandoned."""
        for name, value in counter_summary(other).items():
            setattr(self, name, getattr(self, name) + value)


class CoordinatorRole:
    """Ownership object for the barrier-master responsibilities.

    The DSM engine routes every "master" decision through this role
    instead of comparing against a hard-coded pid: barrier release runs on
    ``self.pid``'s clock, interval collection and the detection pass go
    through :meth:`collect_epoch` / :meth:`run_detection`, and snapshots
    embed :meth:`snapshot_section`.  The pid is stable for the whole run
    unless failover is enabled *and* the coordinator crashes, in which
    case :mod:`repro.dsm.cvm` drives the election and calls
    :meth:`install_from_journal` on the winner.
    """

    def __init__(self, nprocs: int, failover: bool,
                 detector: Optional[RaceDetector],
                 detector_factory: Callable[[int], Optional[RaceDetector]],
                 initial_pid: int = 0):
        self.nprocs = nprocs
        self.failover = failover
        self.pid = initial_pid
        self.detector = detector
        self._factory = detector_factory
        self.stats = FailoverStats()
        #: Canonical-JSON journal of the role state at the last completed
        #: detection pass — what a successor restores from.  Maintained
        #: only under failover.
        self._journal: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Role state (de)serialization.
    # ------------------------------------------------------------------ #
    def serialize_state(self) -> Dict[str, Any]:
        """JSON-serializable role state: who holds the role and the full
        mutable detector state (``None`` with detection off)."""
        return {
            "pid": self.pid,
            "detector": (self.detector.serialize_state()
                         if self.detector is not None else None),
        }

    def state_json(self) -> str:
        """Canonical encoding of :meth:`serialize_state` (sorted keys, no
        whitespace — same convention as checkpoints, so byte sizes are
        deterministic and priceable)."""
        return durable.canon(self.serialize_state())

    @staticmethod
    def parse_journal(framed: str) -> Dict[str, Any]:
        """Validate and decode one framed journal; raises ``ValueError``
        on a torn or corrupt frame (missing/mismatched hash, unparseable
        body, wrong shape) so the restore path can fall back instead of
        installing garbage."""
        body = durable.unframe(framed)
        if body is None:
            raise ValueError("coordinator journal tail torn or corrupt "
                             "(content hash mismatch)")
        try:
            state = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"coordinator journal body unparseable: {exc}")
        if not isinstance(state, dict) or "detector" not in state:
            raise ValueError("coordinator journal body malformed "
                             "(missing role fields)")
        return state

    def journal_state(self, clock: VirtualClock,
                      cost_model: CostModel) -> int:
        """Write the role state to stable storage (failover only), priced
        like a checkpoint write but under ``FAILOVER``; returns the byte
        count.  Called after every completed detection pass so the journal
        is never staler than the last barrier-consistent cut.  The record
        is framed with a trailing content hash so a torn write is
        *detectable* on restore rather than silently corrupting the
        successor's detector state."""
        framed = durable.frame(self.state_json())
        nbytes = len(framed.encode("utf-8"))
        self._journal = framed
        clock.advance(cost_model.checkpoint_write_per_byte * nbytes,
                      CostCategory.FAILOVER)
        self.stats.state_checkpoints += 1
        self.stats.state_checkpoint_bytes += nbytes
        return nbytes

    @property
    def journal_json(self) -> str:
        """The last journaled role state, framed — or, before the first
        journal write, the frame of the current in-memory state (possible
        only if failover was enabled mid-run, which the config layer does
        not allow)."""
        if self._journal is None:
            return durable.frame(self.state_json())
        return self._journal

    def install_from_journal(self, new_pid: int,
                             fallback_state: Optional[Dict[str, Any]] = None
                             ) -> int:
        """Re-home the role on ``new_pid``, rebuilding the detector from
        the stable journal (election outcome).

        A *new* detector is constructed for the winner (so bitmap-round
        accounting treats the winner's own bitmaps as local) and the
        journaled state is restored into it through the real
        serialize → canonical JSON → parse → restore path; returns the
        migrated byte count.

        If the journal's frame fails validation — a torn write truncated
        or corrupted its tail — the restore falls back to
        ``fallback_state`` (the checkpointed coordinator section, when the
        caller has one) or, failing that, the current in-memory state,
        and counts the event in ``stats.journal_fallbacks``.  It never
        raises on a bad journal: a coordinator election must not die on
        the very fault it exists to survive."""
        framed = self.journal_json
        nbytes = len(framed.encode("utf-8"))
        try:
            state = self.parse_journal(framed)
        except ValueError:
            self.stats.journal_fallbacks += 1
            state = (fallback_state if fallback_state is not None
                     else self.serialize_state())
        successor = self._factory(new_pid)
        if successor is not None and state["detector"] is not None:
            successor.restore_state(state["detector"])
        self.detector = successor
        self.pid = new_pid
        self.stats.elections_held += 1
        self.stats.state_bytes_migrated += nbytes
        return nbytes

    # ------------------------------------------------------------------ #
    # The responsibilities the role owns.
    # ------------------------------------------------------------------ #
    def collect_epoch(self, store: IntervalStore,
                      epoch: int) -> List[Interval]:
        """Interval collection for the closing epoch (paper §4 step 1:
        the records arrived on barrier messages; the coordinator gathers
        the epoch's full set for analysis)."""
        return store.epoch_intervals(epoch)

    def run_detection(self, intervals: List[Interval], epoch: int,
                      clock: VirtualClock) -> List[Any]:
        """One detection pass on the coordinator's clock; no-op with
        detection off."""
        if self.detector is None:
            return []
        return self.detector.run_epoch(intervals, epoch, clock)

    def snapshot_section(self, pid: int) -> Dict[str, Any]:
        """Per-node checkpoint section (failover only): every node records
        who currently holds the role; the holder's snapshot additionally
        carries the full serialized role state, joining the delta chain
        like any other snapshot component."""
        return {
            "pid": self.pid,
            "state": (self.serialize_state() if pid == self.pid else None),
        }
