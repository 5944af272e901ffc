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
checkpointing: the detector's commit step, its single writer of
detection state, emits one canonical record per commit (new reports,
suppressed and unverifiable-pair dedup keys, the epoch summary and the
counters), and at every completed detection pass the role appends the new
records, framed, to its journal — an append log on stable storage, priced
per byte appended like a checkpoint write but under
``CostCategory.FAILOVER``.  On failover the new coordinator fetches the
journal, takes its longest intact prefix (filled in from the holder's
checkpoint section, else from the dead coordinator's memory, when a torn
write cut it short), replays it into a freshly constructed detector
(``RaceDetector.replay``), and re-solicits the in-flight
interval/write-notice metadata of the closing epoch from the survivors'
recorded arrival horizons.  The role moves the records as opaque texts;
only :mod:`repro.core.detector` knows their format.  All of it is charged
to ``CostCategory.FAILOVER``, which stays out of ``OVERHEAD_CATEGORIES``
— Tables 1–3 and Figures 3–4 are computed from overhead categories only,
so failover-off artifacts stay byte-identical.

With failover *off* (the default) the role is inert bookkeeping around the
pinned master: no journaling, no extra charges, no behavioural change —
the legacy configuration is byte-identical to builds without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro import durable
from repro.core.detector import RaceDetector
from repro.dsm.interval import Interval
from repro.dsm.node import IntervalStore, Node
from repro.dsm.vector_clock import precedes
from repro.errors import RetryExhaustedError, SynchronizationError
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel
from repro.sim.crash import DEFAULT_CRASH_DETECT_TIMEOUT, counter_summary


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
    #: Journal bytes fetched by a new coordinator.
    state_bytes_migrated: int = 0
    #: Interval records replayed to a new coordinator from the survivors'
    #: recorded arrival horizons.
    records_resolicited: int = 0
    #: Journal appends (one at start-up and one per completed detection
    #: pass while failover is enabled).
    state_checkpoints: int = 0
    #: Total bytes appended to the journal.
    state_checkpoint_bytes: int = 0
    #: Installs that found the journal torn short of its appended records
    #: and filled the tail in from the holder's checkpoint section (or,
    #: lacking one, the in-memory records) instead of raising.
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


def chain_digest(records: List[str], digest: str = "") -> str:
    """Digest of a record sequence, each record hashed onto the digest of
    those before it (``digest``: the chain so far)."""
    for body in records:
        digest = durable.digest(digest + body)
    return digest


def make_detector(system, master_pid: int) -> Optional[RaceDetector]:
    """Detector factory for the coordinator role: the initial instance
    at construction, and replacement instances (re-homed on the
    election winner) during failover.  ``None`` with detection off."""
    config = system.config
    if not config.detection:
        return None
    return RaceDetector(
        config.page_size_words, config.cost_model, system.sizer,
        system.net, system.segment.symbol_for, master_pid=master_pid,
        first_races_only=config.first_races_only,
        fast_path=config.detector_fast_path,
        coarse_filter=config.coarse_filter,
        log_commits=config.master_failover)


def tree_edges(n: int, root_first: bool = False
               ) -> Iterator[Tuple[int, int, int]]:
    """Edges ``(parent, child, step)`` of the binary tree over owner
    indices ``0..n-1`` rooted at 0 (``child = parent + step`` heads the
    subtree ``[child, child + step)``): leaves first, the order a reduce
    merges in, or ``root_first``, the mirrored order a scatter fans out."""
    steps = []
    step = 1
    while step < n:
        steps.append(step)
        step *= 2
    for step in (reversed(steps) if root_first else steps):
        for parent in range(0, n - step, 2 * step):
            yield parent, parent + step, step


class CoordinatorRole:
    """Ownership object for the barrier-master responsibilities.

    The DSM engine routes every "master" decision through this role
    instead of comparing against a hard-coded pid: barrier release runs on
    ``self.pid``'s clock, the epoch's detection pass — centralized or
    sharded — is :meth:`run_epoch`, and snapshots embed
    :meth:`snapshot_section`.  The pid is stable for the whole run unless
    failover is enabled *and* the coordinator crashes, in which case
    :mod:`repro.dsm.recovery` drives the election and calls
    :meth:`install_from_journal` on the winner.  ``system`` is the
    :class:`repro.dsm.cvm.CVM` facade the role analyses for (the journal
    and election halves work without one).
    """

    def __init__(self, nprocs: int, failover: bool,
                 detector: Optional[RaceDetector],
                 detector_factory: Callable[[int], Optional[RaceDetector]],
                 initial_pid: int = 0, system=None):
        self.nprocs = nprocs
        self.failover = failover
        self.pid = initial_pid
        self.detector = detector
        self._factory = detector_factory
        self.system = system
        self.stats = FailoverStats()
        self.sharding_stats = ShardingStats()
        #: The journal, standing for stable storage (failover only): an
        #: append log of the detector's framed commit records, appended
        #: at every completed detection pass — what a successor replays.
        self._journal = bytearray()
        #: Records in the journal, the chain digest of them, and the
        #: records of the last append (the holder's checkpoint section).
        self._journaled = 0
        self._chain = ""
        self._appended: List[str] = []

    # ------------------------------------------------------------------ #
    # The journal and the install.
    # ------------------------------------------------------------------ #
    @property
    def journal_bytes(self) -> int:
        """Size of the journal, the bytes a successor fetches."""
        return len(self._journal)

    def journal_state(self, clock: VirtualClock,
                      cost_model: CostModel) -> int:
        """Append the detector's records committed since the last append
        to the journal (failover only), priced like a checkpoint write but
        under ``FAILOVER`` on the bytes appended; returns that count.
        Called after every completed detection pass so the journal is
        never staler than the last barrier-consistent cut.  Each record is
        framed with a trailing content hash so a torn write is
        *detectable* on install rather than silently corrupting the
        successor's detector state."""
        det = self.detector
        records = det.log[self._journaled:] if det is not None else []
        data = "".join([durable.frame(r) + "\n" for r in records]).encode()
        self._journal += data
        self._journaled += len(records)
        self._chain = chain_digest(records, self._chain)
        self._appended = records
        clock.advance(cost_model.checkpoint_write_per_byte * len(data),
                      CostCategory.FAILOVER)
        self.stats.state_checkpoints += 1
        self.stats.state_checkpoint_bytes += len(data)
        return len(data)

    def install_from_journal(self, new_pid: int,
                             section: Optional[Dict[str, Any]] = None
                             ) -> int:
        """Re-home the role on ``new_pid`` (election outcome): a *new*
        detector is built for the winner (so bitmap-round accounting
        treats the winner's own bitmaps as local) and the journal's
        records are replayed into it; returns the migrated byte count.

        The install takes the journal's longest intact prefix.  When a
        torn write left it short of what was appended, the missing
        records come from the dead holder's checkpoint ``section`` if they
        continue the prefix and the section's chain digest verifies, else
        from the dead coordinator's in-memory records; the event counts
        in ``stats.journal_fallbacks`` and the torn tail is cut, so the
        next append re-writes the filled records.  It never raises on a
        bad journal: a coordinator election must not die on the very
        fault it exists to survive.  It does raise, before touching
        anything, when the role is pinned or ``new_pid`` is no process."""
        if not self.failover:
            raise SynchronizationError(
                "the barrier master is pinned (enable master failover "
                "with --master-failover / DsmConfig.master_failover)")
        if not 0 <= new_pid < self.nprocs:
            raise SynchronizationError(
                f"cannot elect P{new_pid} as barrier master "
                f"(nprocs={self.nprocs})")
        nbytes = len(self._journal)
        records, _dropped, intact = durable.parse_log(
            self._journal, lambda body, _index: body)
        if len(records) < self._journaled:
            self.stats.journal_fallbacks += 1
            del self._journal[intact:]
            self._journaled = len(records)
            self._chain = chain_digest(records)
            records += self._fill(records, section)
        successor = self._factory(new_pid)
        if successor is not None:
            successor.replay(records)
        self.detector = successor
        self.pid = new_pid
        self.stats.elections_held += 1
        self.stats.state_bytes_migrated += nbytes
        return nbytes

    def declare_dead(self, pid: int) -> None:
        """Check that ``pid`` may be declared dead this generation (the
        master's virtual-time timeout expired for it and recovery is being
        initiated).  The *current* master can only be declared dead
        under failover — the election re-homes the role first, so by the
        time the old master is declared dead ``self.pid`` already names
        its successor."""
        if pid == self.pid and not self.failover:
            raise SynchronizationError(
                "the barrier master cannot be declared dead "
                "(enable master failover with --master-failover "
                "/ DsmConfig.master_failover)")

    def _fill(self, prefix: List[str],
              section: Optional[Dict[str, Any]]) -> List[str]:
        """The records past the journal's intact ``prefix``."""
        if section is not None and "records" in section:
            tail = section["records"]
            start = section["count"] - len(tail)
            if start <= len(prefix) <= section["count"]:
                filled = tail[len(prefix) - start:]
                if chain_digest(prefix + filled) == section["digest"]:
                    return filled
        det = self.detector
        return det.log[len(prefix):] if det is not None else []

    # ------------------------------------------------------------------ #
    # The responsibilities the role owns.
    # ------------------------------------------------------------------ #
    def run_epoch(self, store: IntervalStore, epoch: int,
                  clock: VirtualClock) -> None:
        """The closing epoch's detection pass on the coordinator's
        ``clock`` (paper §4: the records arrived on barrier messages; the
        coordinator analyses the epoch's full set) — sharded when
        ``--sharded-detection`` is on and the epoch can be, centralized
        otherwise and on every fallback; no-op with detection off."""
        det = self.detector
        if det is None:
            return
        epoch_recs = store.epoch_intervals(epoch)
        if not (self.system.config.sharded_detection
                and self._run_sharded_detection(epoch_recs, epoch, clock)):
            det.run_epoch(epoch_recs, epoch, clock)

    # ------------------------------------------------------------------ #
    # Sharded detection (``--sharded-detection``): scatter the epoch's
    # pair blocks to shard owners, compute in parallel on the owners'
    # clocks, tree-reduce the candidate reports to the coordinator, and
    # commit there through the centralized dedup state — byte-identical
    # reports, with the coordinator's serialized detection share spread
    # over the live pids.  All protocol traffic under SHARDED_DETECT.
    # ------------------------------------------------------------------ #
    def _run_sharded_detection(self, epoch_recs: List[Interval], epoch: int,
                               master_clock: VirtualClock) -> bool:
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
        system = self.system
        recovery = system.recovery
        det = self.detector
        sh = self.sharding_stats
        # Owners: the coordinator first (it is the reduce root), then
        # every other live pid in pid order.  Pids that crashed during the
        # closing epoch recovered at arrival but are conservatively not
        # trusted with shard ownership (their detection metadata may be
        # the part that was lost).
        live, _crashed = recovery.live_and_crashed()
        owners = [self.pid] + [p for p in live if p != self.pid]
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
        if recovery.crasher is not None and system.config.crash_recovery:
            owner_died = False
            for pid in owners[1:]:
                if plan.shards[pid].blocks and recovery.crash_owner(pid):
                    owner_died = True
            if owner_died:
                master_clock.wait_until(
                    master_clock.now + DEFAULT_CRASH_DETECT_TIMEOUT)
                sh.fallbacks_owner_crash += 1
                return False
        try:
            results, items, staged = self._sharded_phases(det, plan, epoch)
        except RetryExhaustedError:
            sh.fallbacks_network += 1
            return False
        det.commit_sharded(plan, results, items, epoch, master_clock)
        # Counters for the sharded phases are staged and folded in only
        # now that the epoch committed: an abandoned phase (a fallback
        # above) must not leave dispatched-shard or shipped-record counts
        # behind for work whose results were thrown away.
        sh.merge(staged)
        sh.epochs_sharded += 1
        return True

    def _sharded_phases(self, det, plan, epoch: int):
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
        system = self.system
        sync = system.sync
        net = system.net
        nodes = system.nodes
        sizer = system.sizer
        sh = ShardingStats()  # staged; merged by the caller on commit
        cat = CostCategory.SHARDED_DETECT
        coord = plan.owners[0]
        active = [coord] + [pid for pid in plan.owners[1:]
                            if plan.shards[pid].blocks]
        clocks = {pid: nodes[pid].clock for pid in active}
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
            node_vc = nodes[pid].vc
            partners = sorted({x for blk in plan.shards[pid].blocks
                               for x in blk if x != pid})
            recs = [rec for q in partners for rec in plan.by_pid[q]
                    if not rec.is_empty
                    and not precedes(q, rec.index, node_vc)]
            missing[pid] = recs
            sh.records_shipped += len(recs)
        # Phase 1: binary-tree scatter of assignments + record deltas.
        for i, j, step in tree_edges(n, root_first=True):
            src, dst = active[i], active[j]
            subtree = active[j:min(j + step, n)]
            nblocks = sum(len(plan.shards[p].blocks) for p in subtree)
            body = sizer.ints(3 + 2 * len(subtree) + 2 * nblocks)
            # Each edge ships the union of its subtree's deltas, every
            # record once, plus one horizon clock per owner.
            edge_recs = {}
            for p in subtree:
                body += sizer.vector_clock()
                for rec in missing[p]:
                    edge_recs[(rec.pid, rec.index)] = rec
            rec_bytes, _rb, digest_bytes = sync.record_bytes(
                edge_recs.values())
            msg = net.send("detect_shard", src, dst, None,
                           body + rec_bytes, clocks[src],
                           category=cat, fragmentable=True)
            sync.charge_digests(digest_bytes, clocks[src])
            clocks[dst].wait_until(msg.arrival_time)
            sh.scatter_messages += 1
            sh.bytes_scattered += msg.nbytes
        # Phase 2: shard compute, per owner on its own clock.
        results = []
        buffers = {}
        for pid in active:
            res = det.compute_shard(plan.shards[pid], plan, epoch,
                                    clocks[pid])
            sh.bitmap_fetch_messages += res.fetch_messages
            sh.bitmap_fetch_bytes += res.fetch_bytes
            results.append(res)
            buffers[pid] = res.items
        # Phase 3: binary tree-reduce of the candidate items, mirroring
        # the scatter tree; the coordinator (index 0) absorbs the final
        # merges on the master clock.
        for i, j, _step in tree_edges(n):
            dst, src = active[i], active[j]
            msg = net.send(
                "shard_reduce", src, dst, len(buffers[src]),
                det.shard_reduce_bytes(buffers[src]), clocks[src],
                category=cat, fragmentable=True)
            clocks[dst].wait_until(msg.arrival_time)
            sh.reduce_messages += 1
            sh.bytes_reduced += msg.nbytes
            buffers[dst] = det.merge_shard_items(buffers[dst],
                                                 buffers[src])
        return results, buffers[coord], sh

    # ------------------------------------------------------------------ #
    # Consolidation between barriers (§6.3).
    # ------------------------------------------------------------------ #
    def maybe_consolidate(self, node: Node) -> None:
        limit = self.system.config.consolidation_interval
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
        system = self.system
        store = system.store
        epoch = system.sync.barrier_state.generation
        current = store.epoch_intervals(epoch)
        if not current:
            return 0
        self.detector.run_epoch(current, epoch, system.nodes[pid].clock)
        retired = 0
        for rec in current:
            if all(other.vc[rec.pid] >= rec.index for other in system.nodes):
                table = store.by_pid().get(rec.pid, {})
                if rec.index in table:
                    del table[rec.index]
                    retired += 1
        return retired

    def snapshot_section(self, pid: int) -> Optional[Dict[str, Any]]:
        """Per-node checkpoint section: every node records who currently
        holds the role; the holder's snapshot additionally carries the
        journal's record count and chain digest plus the records of the
        last append — what a torn journal tail is filled in from.  Each
        barrier appends once, before the departures' checkpoints, so the
        holder's sections together hold the whole log.  ``None`` without
        failover, so failover-off checkpoints stay byte-identical to
        builds without this module."""
        if not self.failover:
            return None
        if pid != self.pid:
            return {"pid": self.pid}
        return {"pid": self.pid, "count": self._journaled,
                "digest": self._chain, "records": self._appended}
