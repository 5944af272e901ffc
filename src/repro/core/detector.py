"""The barrier-time race-detection algorithm (paper §4, steps 1–5).

The detector runs on the barrier master.  Inputs: every interval of the
closing epoch (their notices arrived on barrier-arrival messages; their
word bitmaps stayed with their creators).  It

1. finds concurrent interval pairs by constant-time vector-timestamp
   comparison,
2. winnows them to pairs with page-level overlap of notices — the *check
   list*,
3. retrieves, in an extra message round, exactly the word bitmaps the check
   list names,
4. intersects those bitmaps: page overlap with disjoint words is false
   sharing; any common word with at least one write is a data race, and
5. reports the race with the affected shared-segment address (resolved to a
   symbol), the interval indexes, and the epoch.

Every step's work is charged to the master's virtual clock under the
``INTERVALS`` or ``BITMAPS`` category so that Figure 3's overhead
decomposition falls out of the ledger.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bitmap import digests_disjoint
from repro.core.checklist import (ACCESS_COMBINATIONS, CheckEntry,
                                  EpochJoin, OverlapPage, PageIndex, Row,
                                  bitmaps_needed, build_check_list,
                                  entry_key, entry_rows, overlap_work)
from repro.core.concurrency import (Block, PairSearchStats,
                                    find_concurrent_pairs, group_by_pid,
                                    pair_blocks)
from repro.core.report import IntervalRef, RaceKind, RaceReport
from repro.dsm.interval import Interval
from repro.durable import canon
from repro.errors import RetryExhaustedError
from repro.net.message import WireSizer
from repro.net.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel


@dataclass
class EpochSummary:
    """One epoch's detection work, retained for diagnostics."""

    epoch: int
    intervals: int
    comparisons: int
    concurrent_pairs: int
    check_list_entries: int
    bitmaps_fetched: int
    races: int
    #: Check entries that could not be resolved because a crash destroyed
    #: one side's word bitmaps (reported, never dropped).
    unverifiable: int = 0


@dataclass
class DetectorStats:
    """Aggregate counters across all epochs of one run (Table 3 inputs)."""

    epochs_checked: int = 0
    intervals_total: int = 0
    intervals_used: int = 0          # intervals in >=1 overlapping concurrent pair
    interval_comparisons: int = 0
    concurrent_pairs: int = 0
    overlapping_pairs: int = 0       # check-list entries
    bitmaps_created: int = 0
    bitmaps_fetched: int = 0
    bitmap_comparisons: int = 0
    races_found: int = 0
    races_suppressed_not_first: int = 0
    #: Bitmap-round exchanges abandoned after the reliable channel's retry
    #: budget ran out (lossy network only; see docs/robustness.md).
    bitmap_rounds_failed: int = 0
    #: Conservative page-granularity reports emitted in place of word
    #: reports whose bitmaps could not be retrieved.
    page_granularity_reports: int = 0
    #: Concurrent overlapping pairs whose race check could not be run
    #: because a node crash (recovered without a checkpoint) destroyed the
    #: word bitmaps of at least one side.  Each such pair is surfaced as
    #: explicit ``verdict="unverifiable"`` report entries — the degraded
    #: detector stays sound by never silently dropping a check.
    unverifiable_pairs: int = 0
    #: Individual unverifiable report entries emitted (>= pair count: one
    #: per access-kind combination per overlapping page).
    unverifiable_reports: int = 0
    #: Two-level filter (``--coarse-filter``): digest pre-checks performed
    #: on check-list access-kind combinations.
    granule_checks: int = 0
    #: Combinations whose digests collided — the word bitmaps must still
    #: be fetched and intersected.
    granule_hits: int = 0
    #: Combinations the digests proved empty: their bitmap fetches and
    #: comparisons were skipped outright (the filter's win).
    pairs_filtered: int = 0
    #: Per-epoch history, in check order (includes consolidation passes).
    epoch_history: List["EpochSummary"] = field(default_factory=list)

    @property
    def intervals_used_fraction(self) -> float:
        """Table 3 "Intervals Used": share of intervals involved in at
        least one concurrent pair with page overlap."""
        if self.intervals_total == 0:
            return 0.0
        return self.intervals_used / self.intervals_total

    @property
    def bitmaps_used_fraction(self) -> float:
        """Table 3 "Bitmaps Used": share of created bitmaps that had to be
        retrieved to separate false from true sharing."""
        if self.bitmaps_created == 0:
            return 0.0
        return self.bitmaps_fetched / self.bitmaps_created


#: The :class:`DetectorStats` counters a commit record carries.
_STAT_SCALARS = tuple(f.name for f in dataclasses.fields(DetectorStats)
                      if f.name != "epoch_history")


# ---------------------------------------------------------------------- #
# The commit record: the one text form of detector state.  A report is a
# row of its fields, its two sides rows of theirs, its kind by value.
# ---------------------------------------------------------------------- #
def _report_row(report: RaceReport) -> tuple:
    kind, addr, symbol, page, offset, epoch, a, b, gran, verdict, lost = report
    return (kind.value, addr, symbol, page, offset, epoch,
            (a.pid, a.index, a.access, a.sync_label),
            (b.pid, b.index, b.access, b.sync_label), gran, verdict, lost)


def _report_from_row(row: list) -> RaceReport:
    kind, addr, symbol, page, offset, epoch, a, b, gran, verdict, lost = row
    return RaceReport(RaceKind(kind), addr, symbol, page, offset, epoch,
                      IntervalRef(*a), IntervalRef(*b), gran, verdict,
                      tuple(lost))


# ---------------------------------------------------------------------- #
# An epoch's work is cut into *slices*: its cross-process pair blocks are
# partitioned over owner pids and each owner computes its slice on its own
# clock (:class:`RaceDetector` states the contract).  Centralized
# detection is the one-owner case; ``--sharded-detection`` runs N slices
# whose items tree-reduce back to the coordinator and through the same
# commit, so the emitted reports are byte-identical by construction.  The
# orchestration (scatter, reduce, crash fallback) lives in
# :mod:`repro.dsm.cvm`; everything here is pure detection logic.
# ---------------------------------------------------------------------- #
@dataclass
class DetectShard:
    """One owner's slice of an epoch: a set of process-pair blocks."""

    owner: int
    #: Assigned (p, q) blocks, p < q, in canonical block order.
    blocks: List[Block] = field(default_factory=list)
    #: Naive comparison count of the assigned blocks (sum of
    #: ``|I_p| * |I_q|``) — the shard's INTERVALS charge and the
    #: load-balancing weight.
    model_comparisons: int = 0


@dataclass
class ShardPlan:
    """Partition of one epoch's pair search over shard owners.

    Blocks partition the cross-process pairs exactly, so per-shard
    aggregates (model comparisons, concurrent pairs, probe work, check
    entries, bitmap comparisons) sum to the one-owner figures, and the
    per-shard candidate streams merge — by canonical entry key — into the
    check-list order.
    """

    #: Owner pids, coordinator first (the reduce root).
    owners: List[int]
    by_pid: Dict[int, List[Interval]]
    shards: Dict[int, DetectShard]
    intervals: List[Interval]
    lost_present: bool
    #: The epoch's inverted notices, shared by every shard's join; None
    #: for the reference engine, which joins pair at a time.
    index: Optional[PageIndex]


@dataclass
class ShardItem:
    """One check entry's dedup-free candidate reports.

    ``key`` is the canonical check-entry key ``(a.pid, b.pid, a.index,
    b.index)`` — unique across shards (an entry belongs to exactly one
    block) — so a plain sorted merge of per-shard item lists reproduces
    the check-list order, and the commit step runs the cross-epoch dedup
    over it whatever the number of slices.
    """

    key: Tuple[int, int, int, int]
    #: "race", "page" (a side's bitmaps never arrived: whole-page reports)
    #: or "unverifiable" (crash-lost side).
    kind: str
    #: Candidate reports in generation order, *not* deduped — dedup
    #: against ``_seen_keys`` is the commit step.
    reports: List[RaceReport]
    #: Unverifiable-pair dedup key (``kind == "unverifiable"`` only).
    pair_key: Optional[Tuple] = None


@dataclass
class ShardResult:
    """One slice's computation: candidate items plus additive counters."""

    owner: int
    #: Modeled (naive) comparisons of the assigned blocks.
    comparisons: int = 0
    #: Steps 2-3 of the slice, per-pair objects released.  Blocks partition
    #: the check list exactly, so its counters sum — and its ``used`` /
    #: ``needed`` sets unite — over the slices to the one-owner figures.
    join: EpochJoin = field(default_factory=EpochJoin)
    bitmap_comparisons: int = 0
    #: Message/byte counts of the slice's bitmap round.
    fetch_messages: int = 0
    fetch_bytes: int = 0
    #: Pids whose exchange exhausted the retry budget (tolerant round
    #: only); their entries are the ``"page"`` items.
    failed_owners: Set[int] = field(default_factory=set)
    #: Candidate items in canonical entry-key order.
    items: List[ShardItem] = field(default_factory=list)


class RaceDetector:
    """On-the-fly detector; one instance per CVM system.

    Every epoch goes through one pipeline, whatever the number of slices:

    * **plan** — partition the epoch's pair blocks over owner pids
      (``run_epoch``: the master owns them all; ``plan_shards``: N owners).
    * **compute** — per slice, on the owner's clock: pair search,
      check-list join, bitmap round, bitmap comparison, yielding one
      :class:`ShardResult`.  Pure: it charges clocks and sends messages
      but mutates *no* detector state, so an abandoned slice (crash or
      network fallback) leaves the detector exactly as it was.
    * **commit** — fold the slice results and their key-merged candidate
      items in.  The only writer of ``stats``, ``races``,
      ``unverifiable``, ``_seen_keys``, ``_unverifiable_pair_keys`` and
      ``_first_race_epoch`` (:meth:`replay` apart); with ``log_commits``
      it appends what it wrote, as one canonical record text, to
      :attr:`log`.
    """

    def __init__(self, page_size_words: int, cost_model: CostModel,
                 sizer: WireSizer, transport: Transport,
                 symbol_for, master_pid: int = 0,
                 first_races_only: bool = False,
                 fast_path: bool = True,
                 coarse_filter: bool = False,
                 log_commits: bool = False):
        self.page_size_words = page_size_words
        self.cost_model = cost_model
        self.sizer = sizer
        self.transport = transport
        #: Callable addr -> str, normally SharedSegment.symbol_for.
        self.symbol_for = symbol_for
        self.master_pid = master_pid
        self.first_races_only = first_races_only
        #: Execution engine selector.  True (default): pruned pair search +
        #: bit-parallel check-list join, with the naive algorithm's work
        #: charged to virtual time analytically.  False: the paper's
        #: literal O(i^2 p^2) reference algorithm.  Verdicts, stats and
        #: ledgers are identical either way (the equivalence tests assert
        #: this); only Python wall-clock differs.
        self.fast_path = fast_path
        #: Two-level filter: pre-check every check-list combination
        #: against the coarse digests piggy-backed on the interval
        #: records, fetching and intersecting word bitmaps only on
        #: granule hits.  The filter only skips comparisons it can prove
        #: empty, so reports are byte-identical with it off — only the
        #: fetch round shrinks.  (DsmConfig defaults this on for
        #: detection runs; the bare constructor defaults off so direct
        #: detector use reproduces the paper's unfiltered pipeline.)
        self.coarse_filter = coarse_filter
        #: Vector-clock probes the fast path actually performed (pruned
        #: search), for diagnostics/benchmarks.  Deliberately *not* part of
        #: DetectorStats: the model figure there stays the naive count.
        self.actual_comparisons = 0
        self.stats = DetectorStats()
        self.races: List[RaceReport] = []
        #: ``verdict="unverifiable"`` entries (crash-lost metadata), kept
        #: apart from confirmed races so race artifacts stay comparable
        #: across runs while the degradation is still fully reported.
        self.unverifiable: List[RaceReport] = []
        #: Report keys seen so far, as an insertion-ordered set.
        self._seen_keys: Dict[Tuple, None] = {}
        self._unverifiable_pair_keys: Set[Tuple] = set()
        self._first_race_epoch: Optional[int] = None
        #: One record text per commit, in commit order (``log_commits``
        #: only): what :meth:`replay` folds back into a fresh detector.
        self.log: Optional[List[str]] = [] if log_commits else None

    # ------------------------------------------------------------------ #
    # Entry point: one epoch's analysis, run on the barrier master.
    # ------------------------------------------------------------------ #
    def run_epoch(self, intervals: List[Interval], epoch: int,
                  master_clock: VirtualClock) -> List[RaceReport]:
        """Analyze a closed epoch; returns the new race reports.

        The one-slice pipeline: the master owns every block.  Its bitmap
        round is the paper's extra barrier round, priced under BITMAPS,
        and tolerates a lossy network: an owner whose exchange exhausts
        the retry budget keeps its bitmaps, and the check entries that
        needed them degrade to page granularity.
        """
        index = PageIndex(intervals) if self.fast_path else None
        by_pid = index.by_pid if index is not None else group_by_pid(intervals)
        blocks = pair_blocks(by_pid)
        shard = DetectShard(self.master_pid, blocks, sum(
            len(by_pid[p]) * len(by_pid[q]) for p, q in blocks))
        plan = ShardPlan(owners=[shard.owner], by_pid=by_pid,
                         shards={shard.owner: shard},
                         intervals=list(intervals),
                         lost_present=any(rec.lost for rec in intervals),
                         index=index)
        res = self._compute(shard, plan, epoch, master_clock, "bitmap_",
                            CostCategory.BITMAPS, tolerant=True)
        self.transport.stats.bitmap_round_bytes += res.fetch_bytes
        return self._commit(plan, [res], res.items, epoch)

    # ------------------------------------------------------------------ #
    # State migration (master failover).
    #
    # Everything a replacement coordinator needs to continue detection
    # with identical verdicts *and* identical artifacts is what the
    # commits wrote: the accumulated reports, the aggregate statistics
    # and — critically — the cross-epoch deduplication state.
    # ``RaceReport.key()`` deliberately excludes the epoch, so dropping
    # ``_seen_keys`` on migration would re-report or mis-deduplicate races
    # found before the crash.
    # ------------------------------------------------------------------ #
    def _record(self, races: List[RaceReport],
                unverifiable: List[RaceReport],
                suppressed: List[RaceReport], pair_keys: List[Tuple],
                summary: EpochSummary) -> str:
        """One commit's delta as canonical JSON: its new reports, the keys
        of the races ``first_races_only`` suppressed, its new unverifiable
        pair keys, its epoch summary and the counters as they now stand."""
        stats = self.stats
        return canon({
            "races": [_report_row(r) for r in races],
            "unverifiable": [_report_row(r) for r in unverifiable],
            "suppressed": [(r.kind.value, *r.key()[1:]) for r in suppressed],
            "pair_keys": pair_keys,
            "epoch": dataclasses.asdict(summary),
            "stats": {name: getattr(stats, name) for name in _STAT_SCALARS},
            "first_race_epoch": self._first_race_epoch,
            "actual_comparisons": self.actual_comparisons,
        })

    def replay(self, records: List[str]) -> None:
        """Fold :meth:`_commit` records, oldest first, into this freshly
        built detector: it ends in the state of the detector that wrote
        them.  Constructor-time configuration (cost model, sizer,
        ``master_pid``, engine selection) is deliberately untouched: the
        role's *owner* changed, not the algorithm."""
        stats, seen = self.stats, self._seen_keys
        for text in records:
            record = json.loads(text)
            for name in ("races", "unverifiable"):
                reports = [_report_from_row(row) for row in record[name]]
                getattr(self, name).extend(reports)
                seen.update(dict.fromkeys(r.key() for r in reports))
            for kind, gran, verdict, addr, side_a, side_b in \
                    record["suppressed"]:
                seen[(RaceKind(kind), gran, verdict, addr, tuple(side_a),
                      tuple(side_b))] = None
            self._unverifiable_pair_keys.update(
                (tuple(a), tuple(b)) for a, b in record["pair_keys"])
            stats.epoch_history.append(EpochSummary(**record["epoch"]))
            for name, value in record["stats"].items():
                setattr(stats, name, value)
            self._first_race_epoch = record["first_race_epoch"]
            self.actual_comparisons = record["actual_comparisons"]
        if self.log is not None:
            self.log.extend(records)

    # ------------------------------------------------------------------ #
    # The N-slice entry points: ``plan_shards`` -> per-owner
    # ``compute_shard`` -> pairwise ``merge_shard_items`` ->
    # ``commit_sharded`` on the coordinator are ``run_epoch``'s steps; the
    # cvm layer drives the phases and prices the distribution traffic.
    # ------------------------------------------------------------------ #
    def plan_shards(self, intervals: List[Interval],
                    owners: List[int]) -> Optional[ShardPlan]:
        """Partition the epoch's pair blocks over ``owners`` (coordinator
        first).  Returns None when sharding cannot help — fewer than two
        owners, or no cross-process blocks — in which case the caller runs
        the centralized engine for this epoch.

        Assignment is greedy weight-balanced over the block weights
        ``|I_p| * |I_q|``, restricted to owners that are an endpoint of
        the block (they already hold half the records locally); blocks
        with no live endpoint owner land on the coordinator, which holds
        every record.  Deterministic: blocks are visited in canonical
        order and ties break by owner rank.
        """
        if len(owners) < 2:
            return None
        index = PageIndex(intervals)
        by_pid = index.by_pid
        if len(by_pid) < 2:
            return None
        owner_rank = {pid: rank for rank, pid in enumerate(owners)}
        shards = {pid: DetectShard(owner=pid) for pid in owners}
        for p, q in pair_blocks(by_pid):
            candidates = [x for x in (p, q) if x in owner_rank]
            if candidates:
                owner = min(candidates, key=lambda x: (
                    shards[x].model_comparisons, owner_rank[x]))
            else:
                owner = owners[0]
            shards[owner].blocks.append((p, q))
            shards[owner].model_comparisons += (len(by_pid[p])
                                                * len(by_pid[q]))
        return ShardPlan(owners=list(owners), by_pid=by_pid, shards=shards,
                         intervals=list(intervals),
                         lost_present=any(rec.lost for rec in intervals),
                         index=index)

    def compute_shard(self, shard: DetectShard, plan: ShardPlan,
                      epoch: int, clock: VirtualClock) -> ShardResult:
        """Run the pair search, the check-list join and the bitmap
        comparison for one shard's blocks on the owner's ``clock``.

        Charges are the centralized engine's — the naive comparison model
        under INTERVALS, overlap probes under INTERVALS, one BITMAPS
        charge per bitmap comparison — they just land on the owner's
        ledger.  Bitmaps the shard names but the owner does not hold are
        fetched in a round priced under SHARDED_DETECT (it exists only
        because of sharding — the per-shard fetches may overlap across
        owners, which the separate category keeps honest);
        :class:`repro.errors.RetryExhaustedError` propagates from the
        first failing exchange so the caller can fall back to centralized
        detection for the epoch.
        """
        if not shard.blocks:
            # Nothing to search (usually the coordinator's slice): unlike
            # a whole epoch, a blockless slice owes no pair-search charge.
            return ShardResult(owner=shard.owner)
        return self._compute(shard, plan, epoch, clock, "shard_bitmap_",
                             CostCategory.SHARDED_DETECT, tolerant=False)

    @staticmethod
    def merge_shard_items(left: List[ShardItem],
                          right: List[ShardItem]) -> List[ShardItem]:
        """One tree-reduce step: merge two key-sorted item lists.  Keys
        are unique across shards, so this is a plain sorted merge."""
        merged: List[ShardItem] = []
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i].key <= right[j].key:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged

    def shard_reduce_bytes(self, items: List[ShardItem]) -> int:
        """Encoded size of one reduce payload: a per-item entry header
        plus a fixed record per candidate report (kind, page, offset,
        epoch, two interval refs, verdict flags)."""
        total = self.sizer.ints(1)
        for item in items:
            total += self.sizer.ints(6)
            total += len(item.reports) * self.sizer.ints(10)
        return total

    def commit_sharded(self, plan: ShardPlan, results: List[ShardResult],
                       items: List[ShardItem], epoch: int,
                       master_clock: VirtualClock) -> List[RaceReport]:
        """Coordinator-side commit of a sharded epoch.  ``items`` is the
        fully merged, key-sorted candidate list of ``results``."""
        return self._commit(plan, results, items, epoch)

    # ------------------------------------------------------------------ #
    # Internals: the compute and commit steps, then what they are made of.
    # ------------------------------------------------------------------ #
    def _compute(self, shard: DetectShard, plan: ShardPlan, epoch: int,
                 clock: VirtualClock, tag: str, category: CostCategory,
                 tolerant: bool) -> ShardResult:
        """Steps 2-5 for one slice on the owner's ``clock``, up to the
        dedup: every intersection bit becomes a candidate, because
        first-occurrence dedup needs the global order, which only the
        commit has.  ``tag``, ``category`` and ``tolerant`` are the
        caller's bitmap-round policy (:meth:`_bitmap_round`)."""
        res = ShardResult(owner=shard.owner,
                          comparisons=shard.model_comparisons)
        # Steps 2+3: concurrent pairs (constant-time VC comparisons), then
        # page-overlap winnowing into the check list.
        #
        # The fast path (default) never enumerates the concurrent pairs:
        # the pruned O(i log i) search leaves them as bit masks, and the
        # check list is their intersection with the inverted notices —
        # rows of partner masks that steps 4-5 walk as they are; entry
        # objects are built only for a degraded epoch.  Virtual time is
        # *decoupled* from that execution: the clock is charged for the
        # naive algorithm's comparison count (computed analytically) and
        # the reference probe work, exactly as the reference engine
        # charges them — ledgers, stats, and verdicts are bit-identical
        # either way.
        search = PairSearchStats()
        if plan.index is not None:
            join = self._join_blocks(shard, plan, search, clock)
        else:
            pairs = list(find_concurrent_pairs(plan.intervals, search))
            res.comparisons = search.comparisons
            self._charge_pair_search(
                search.comparisons,
                sum(overlap_work(a, b) for a, b in pairs), clock)
            join = self._winnow(build_check_list(pairs), plan.lost_present,
                                clock)
        join.probes = search.comparisons
        join.concurrent_pairs = search.concurrent_pairs
        res.join = join

        # Step 4; a tolerated failure degrades that owner's entries below.
        res.fetch_messages, res.fetch_bytes, failed = self._bitmap_round(
            shard.owner, join.needed, clock, tag, category, tolerant)
        res.failed_owners = failed
        if failed and join.rows is not None:
            # The page-granularity reports are defined over entries and
            # their *unfiltered* pages, which the join did not build.
            index = plan.index
            join.entries = index.entries(index.join(join.conc, False).rows)
            join.rows = None
            if self.coarse_filter:
                join.plan = {id(entry): self._filter_pages(entry)[0]
                             for entry in join.entries}

        # Step 5: bitmap comparison -> candidate reports.  A clean epoch
        # walks each interval's rows against its partners; the entries
        # that report become items, put in check-list order.  A degraded
        # epoch and the reference engine walk the entries.
        if join.rows is not None:
            recs = plan.index.recs
            for o, rows in join.rows:
                a = recs[o]
                comparisons, found = self._word_candidates(a, rows, recs,
                                                           epoch, clock)
                res.bitmap_comparisons += comparisons
                for x, reports in found.items():
                    b = recs[x]
                    res.items.append(ShardItem(
                        (a.pid, b.pid, a.index, b.index), "race", reports))
            res.items.sort(key=attrgetter("key"))
        for entry in join.entries:
            if plan.lost_present and (entry.a.lost or entry.b.lost):
                res.items.append(self._unverifiable_item(entry, epoch))
            elif failed and (entry.a.pid in failed or entry.b.pid in failed):
                # Word bitmaps for one side never arrived: degrade this
                # entry to explicit page-granularity reports rather than
                # dropping it — the affected range is never silently lost
                # (ROADMAP robustness goal; compare Butelle & Coti's
                # requirement that detection metadata survive an
                # unreliable substrate).  Deliberately over the
                # *unfiltered* pages: with the exchange failed, the
                # conservative page-granularity report matches what the
                # filter-off detector would emit.
                res.items.append(ShardItem(
                    entry_key(entry), "page",
                    self._page_candidates(entry, epoch)))
            else:
                comparisons, found = self._word_candidates(
                    entry.a, entry_rows(join.pages_of(entry)), (entry.b,),
                    epoch, clock)
                res.bitmap_comparisons += comparisons
                if found:
                    res.items.append(ShardItem(entry_key(entry), "race",
                                               found[0]))
        # The commit reads the join's counters and sets; its rows and
        # per-pair objects are done with, and N slices' worth of them
        # would otherwise live until the reduce has finished.
        join.rows, join.entries, join.conc, join.plan = None, [], [], None
        return res

    def _commit(self, plan: ShardPlan, results: List[ShardResult],
                items: List[ShardItem], epoch: int) -> List[RaceReport]:
        """Fold one epoch's slices into the detector; returns the new race
        reports.

        ``items`` is the key-sorted merge of the slices' candidates — the
        check-list order — so first-occurrence dedup against
        ``_seen_keys`` (``RaceReport.key()`` deliberately excludes the
        epoch) keeps the same reports in the same order however the epoch
        was sliced.
        """
        stats = self.stats
        stats.epochs_checked += 1
        for rec in plan.intervals:
            stats.bitmaps_created += (len(rec.read_bitmaps)
                                      + len(rec.write_bitmaps))
        stats.intervals_total += len(plan.intervals)
        comparisons = concurrent_pairs = check_entries = 0
        used: Set[Tuple[int, int]] = set()
        needed: Set[Tuple[int, int, int, str]] = set()
        failed: Set[int] = set()
        for r in results:
            comparisons += r.comparisons
            concurrent_pairs += r.join.concurrent_pairs
            check_entries += r.join.check_entries
            used |= r.join.used
            needed |= r.join.needed
            failed |= r.failed_owners
            self.actual_comparisons += r.join.probes
            stats.bitmap_comparisons += r.bitmap_comparisons
            stats.granule_checks += r.join.granule_checks
            stats.granule_hits += r.join.granule_hits
            stats.pairs_filtered += (r.join.granule_checks
                                     - r.join.granule_hits)
        stats.interval_comparisons += comparisons
        stats.concurrent_pairs += concurrent_pairs
        stats.overlapping_pairs += check_entries
        stats.intervals_used += len(used)
        stats.bitmap_rounds_failed += len(failed)
        fetched = sum(1 for pid, _idx, _page, _kind in needed
                      if pid not in failed)
        stats.bitmaps_fetched += fetched

        new_races: List[RaceReport] = []
        new_unverifiable: List[RaceReport] = []
        new_pair_keys: List[Tuple] = []
        for item in items:
            fresh: List[RaceReport] = []
            for report in item.reports:
                key = report.key()
                if key not in self._seen_keys:
                    self._seen_keys[key] = None
                    fresh.append(report)
            if item.kind == "unverifiable":
                if item.pair_key not in self._unverifiable_pair_keys:
                    self._unverifiable_pair_keys.add(item.pair_key)
                    new_pair_keys.append(item.pair_key)
                    stats.unverifiable_pairs += 1
                stats.unverifiable_reports += len(fresh)
                new_unverifiable.extend(fresh)
            else:
                if item.kind == "page":
                    stats.page_granularity_reports += len(fresh)
                new_races.extend(fresh)
        self.unverifiable.extend(new_unverifiable)

        summary = EpochSummary(
            epoch=epoch, intervals=len(plan.intervals),
            comparisons=comparisons, concurrent_pairs=concurrent_pairs,
            check_list_entries=check_entries, bitmaps_fetched=fetched,
            races=len(new_races), unverifiable=len(new_unverifiable))
        stats.epoch_history.append(summary)

        kept = new_races
        if self.first_races_only and new_races:
            if self._first_race_epoch is None:
                self._first_race_epoch = epoch
            elif epoch > self._first_race_epoch:
                # Races in a later epoch are necessarily affected by the
                # earlier ones (a barrier orders the epochs), hence not
                # "first" races (§6.4).
                stats.races_suppressed_not_first += len(new_races)
                kept = []
        self.races.extend(kept)
        stats.races_found += len(kept)
        if self.log is not None:
            self.log.append(self._record(
                kept, new_unverifiable, [] if kept else new_races,
                new_pair_keys, summary))
        return kept

    def _join_blocks(self, shard: DetectShard, plan: ShardPlan,
                     search: PairSearchStats,
                     clock: VirtualClock) -> EpochJoin:
        """Steps 2-3 and the coarse filter for the blocks of ``shard``,
        charged to ``clock`` as the reference engine charges them."""
        index = plan.index
        conc, probe_work = index.scan(shard.blocks, search)
        self._charge_pair_search(shard.model_comparisons, probe_work, clock)
        if plan.lost_present:
            # Crash-degraded epoch: the unverifiable reports are defined
            # over every entry and its unfiltered pages, so take the whole
            # list and the reference steps.
            join = self._winnow(index.entries(index.join(conc, False).rows),
                                True, clock)
            join.conc = conc
        else:
            join = index.join(conc, self.coarse_filter)
            join.needed = index.needed(join.rows)
            if self.coarse_filter:
                clock.advance(
                    self.cost_model.granule_check * join.granule_checks,
                    CostCategory.COARSE_FILTER)
        return join

    def _charge_pair_search(self, comparisons: int, probe_work: int,
                            clock: VirtualClock) -> None:
        clock.advance(self.cost_model.interval_compare * max(1, comparisons),
                      CostCategory.INTERVALS)
        clock.advance(self.cost_model.page_overlap_check * probe_work,
                      CostCategory.INTERVALS)

    def _winnow(self, check_list: List[CheckEntry], lost_present: bool,
                clock: VirtualClock) -> EpochJoin:
        """The reference steps from a fully materialized check list to the
        bitmaps it needs: one digest pre-check per entry."""
        join = EpochJoin(check_entries=len(check_list), entries=check_list)
        for entry in check_list:
            join.used.add((entry.a.pid, entry.a.index))
            join.used.add((entry.b.pid, entry.b.index))
        # Crash degradation: an interval marked *lost* kept its page-level
        # notices (they travelled on synchronization messages before the
        # crash) but its word bitmaps died with the node, so it still
        # participates in the concurrency search and the check list — its
        # entries just cannot be bitmap-resolved.  They are split off here
        # and reported as explicit ``unverifiable`` entries in step 5.
        if lost_present:
            resolvable = [e for e in check_list
                          if not (e.a.lost or e.b.lost)]
        else:
            resolvable = check_list
        # Two-level filter (first level): pre-check every combination of
        # the resolvable entries against the coarse digests that arrived
        # piggy-backed on the interval records.  Digest-disjoint
        # combinations are provably race-free — they leave the fetch set
        # *and* the comparison loop; only granule hits go on.
        if self.coarse_filter:
            join.plan = {}
            effective: List[CheckEntry] = []
            for entry in resolvable:
                pages, checks, hits = self._filter_pages(entry)
                join.granule_checks += checks
                join.granule_hits += hits
                join.plan[id(entry)] = pages
                if pages:
                    effective.append(CheckEntry(entry.a, entry.b, pages))
            clock.advance(self.cost_model.granule_check * join.granule_checks,
                          CostCategory.COARSE_FILTER)
            resolvable = effective
        join.needed = bitmaps_needed(resolvable)
        return join

    def _bitmap_round(self, requester: int,
                      needed: Set[Tuple[int, int, int, str]],
                      clock: VirtualClock, tag: str, category: CostCategory,
                      tolerant: bool) -> Tuple[int, int, Set[int]]:
        """Message accounting for the bitmap retrieval round: one
        ``<tag>request`` and one ``<tag>reply`` per process that owns
        needed bitmaps, in pid order, on ``clock`` under ``category``.
        Returns ``(messages, bytes, failed pids)``.

        A pid fails when its exchange exhausts the reliable channel's
        retry budget (never on a fault-free network).  A ``tolerant``
        round records it — its bitmaps are unavailable and the caller
        degrades those check entries to page-granularity reports instead
        of silently dropping them — and goes on to the remaining owners;
        otherwise the error propagates at once, before anything is sent
        to a later owner, and the caller abandons the slice.
        """
        nmsgs = nbytes = 0
        failed: Set[int] = set()
        by_owner: Dict[int, int] = {}
        for pid, _idx, _page, _kind in needed:
            by_owner[pid] = by_owner.get(pid, 0) + 1
        for pid in sorted(by_owner):
            if pid == requester:
                continue  # the requester's own bitmaps are local
            count = by_owner[pid]
            req_bytes = self.sizer.ints(1 + 4 * count)
            reply_bytes = self.sizer.ints(1) + count * (
                self.sizer.ints(4) + self.sizer.bitmap())
            try:
                msg = self.transport.send(
                    tag + "request", requester, pid, None, req_bytes,
                    clock, category=category)
                nmsgs += 1
                nbytes += msg.nbytes
                msg = self.transport.send(
                    tag + "reply", pid, requester, None, reply_bytes,
                    clock, category=category, fragmentable=True)
                nmsgs += 1
                nbytes += msg.nbytes
            except RetryExhaustedError:
                if not tolerant:
                    raise
                failed.add(pid)
        return nmsgs, nbytes, failed

    def _filter_pages(self, entry: CheckEntry
                      ) -> Tuple[List[OverlapPage], int, int]:
        """Granule pre-check of one check entry: returns the surviving
        overlap pages (combination flags cleared where the digests prove
        the word bitmaps disjoint, pages with no surviving flag dropped)
        plus the (checks, hits) counts for stats and cycle charging."""
        a, b = entry.a, entry.b
        out: List[OverlapPage] = []
        checks = hits = 0
        for ov in entry.pages:
            page = ov.page
            surviving = {}
            for flag, a_access, b_access, _kind in ACCESS_COMBINATIONS:
                if getattr(ov, flag):
                    checks += 1
                    if not digests_disjoint(a.digest(page, a_access),
                                            b.digest(page, b_access)):
                        surviving[flag] = True
            if surviving:
                hits += len(surviving)
                out.append(OverlapPage(page, **surviving))
        return out, checks, hits

    def _word_candidates(self, a: Interval, rows: List[Row],
                         partners: Sequence[Interval], epoch: int,
                         clock: VirtualClock
                         ) -> Tuple[int, Dict[int, List[RaceReport]]]:
        """Step 5 for interval ``a``, before the dedup: one bitmap
        comparison per set bit of each row's masks, bit ``x`` standing
        for ``partners[x]``; returns ``(comparisons, reports)``, the
        reports — one per common word — by partner bit, each list in
        page, :data:`ACCESS_COMBINATIONS` and word order.  The one step 5
        of both walks: a clean epoch's rows over the epoch's intervals,
        and a check entry's pages over its one partner.

        The page base and the two :class:`IntervalRef` are built per
        comparison with a common word, so a word costs its symbol and one
        ``tuple.__new__``.  An absent bitmap is empty (where §6.5's
        diff-derived write detection loses same-value overwrites: the
        diff set no bits).  The comparisons are charged in one advance,
        equal to one per comparison as the cost constants are dyadic
        rationals (the per-bit spec: tests/core/reference_step5.py)."""
        psz = self.page_size_words
        symbol_for = self.symbol_for
        new = tuple.__new__
        comparisons = 0
        found: Dict[int, List[RaceReport]] = {}
        for row in rows:
            page = row[0]
            for mask, (_flag, a_access, b_access, kind) in zip(
                    row[1:], ACCESS_COMBINATIONS):
                if not mask:
                    continue
                comparisons += mask.bit_count()
                bm_a = (a.write_bitmaps if a_access == "write"
                        else a.read_bitmaps).get(page)
                if bm_a is None:
                    continue
                mine = bm_a._bits
                b_write = b_access == "write"
                while mask:
                    low = mask & -mask
                    mask ^= low
                    x = low.bit_length() - 1
                    b = partners[x]
                    bm_b = (b.write_bitmaps if b_write
                            else b.read_bitmaps).get(page)
                    if bm_b is None:
                        continue
                    common = mine & bm_b._bits
                    if not common:
                        continue
                    ref_a = IntervalRef(a.pid, a.index, a_access,
                                        a.sync_label)
                    ref_b = IntervalRef(b.pid, b.index, b_access,
                                        b.sync_label)
                    base = page * psz
                    out = found.setdefault(x, [])
                    while common:
                        low = common & -common
                        common ^= low
                        bit = low.bit_length() - 1
                        addr = base + bit
                        out.append(new(RaceReport, (
                            kind, addr, symbol_for(addr), page, bit, epoch,
                            ref_a, ref_b, "word", "race", ())))
        if comparisons:
            clock.advance(self.cost_model.bitmap_compare_per_word * psz
                          * comparisons, CostCategory.BITMAPS)
        return comparisons, found

    def _page_candidates(self, entry: CheckEntry, epoch: int,
                         **verdict: Any) -> List[RaceReport]:
        """Whole-page reports, flagged ``granularity="page"``, for every
        combination of ``entry``'s pages whose bitmaps cannot be had."""
        a, b = entry.a, entry.b
        reports: List[RaceReport] = []
        for ov in entry.pages:
            addr = ov.page * self.page_size_words
            for flag, a_access, b_access, kind in ACCESS_COMBINATIONS:
                if getattr(ov, flag):
                    reports.append(RaceReport(
                        kind=kind, addr=addr, symbol=self.symbol_for(addr),
                        page=ov.page, offset=0, epoch=epoch,
                        a=IntervalRef(a.pid, a.index, a_access,
                                      a.sync_label),
                        b=IntervalRef(b.pid, b.index, b_access,
                                      b.sync_label),
                        granularity="page", **verdict))
        return reports

    def _unverifiable_item(self, entry: CheckEntry, epoch: int) -> ShardItem:
        """Degraded-mode reporting for a check entry touching a crash-lost
        interval: the pair is concurrent and its notices overlap, but the
        word bitmaps of the lost side died with the node, so the race can
        be neither confirmed nor refuted.  Every such pair is surfaced as
        explicit ``verdict="unverifiable"`` page-granularity entries naming
        the lost interval(s) — soundness of the degraded detector means
        never dropping a check silently.  The pair key travels with the
        item because the pair count, like the report dedup, belongs to the
        commit."""
        sides = sorted((entry.a, entry.b), key=lambda r: (r.pid, r.index))
        lost = tuple(f"P{rec.pid}:{rec.index}" for rec in sides if rec.lost)
        return ShardItem(
            entry_key(entry), "unverifiable",
            self._page_candidates(entry, epoch, verdict="unverifiable",
                                  lost_intervals=lost),
            pair_key=tuple((rec.pid, rec.index) for rec in sides))

