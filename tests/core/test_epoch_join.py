"""The bit-parallel epoch join against the pair-at-a-time reference.

``PageIndex.scan`` + ``PageIndex.join`` must be *indistinguishable* from
``find_concurrent_pairs`` + ``build_check_list`` + ``_filter_pages`` +
step 5 on any epoch: the entries and their filtered pages, the filter
counters, the used set, the fetch set and the report list — with the
coarse filter on and off, centralized and sharded, with a crash-lost
interval, and with a bitmap exchange that exhausts its retry budget.
A clean epoch's fetch set and step 5 walk the join's rows of partner
masks; the reference engine walks entries, and the two must agree.
"""

import random

import pytest

from repro.core import checklist
from repro.core.bitmap import BLOOM_SPARSE_MAX
from repro.core.checklist import (PageIndex, bitmaps_needed, build_check_list,
                                  entry_key)
from repro.core.concurrency import (PairSearchStats, find_concurrent_pairs,
                                    pair_blocks)
from repro.core.detector import RaceDetector
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import VectorClock
from repro.errors import RetryExhaustedError
from repro.net.message import WireSizer
from repro.net.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel
from tests.helpers import detector_state

PAGE_WORDS = 64
PAGES = 5
#: Word offsets shared by every pid, so equal digests occur across pids.
COMMON_OFFSETS = (0, 3, 17, 40, 63)


def _touch(rng, rec, write):
    """One page access in one of the shapes the digests distinguish."""
    record = rec.record_write if write else rec.record_read
    page = rng.randrange(PAGES)
    shape = rng.random()
    if shape < 0.35:       # sparse, common offset: Bloom digest, shared
        record(page, rng.choice(COMMON_OFFSETS))
    elif shape < 0.6:      # sparse, per-pid offset: false sharing
        record(page, (rec.pid * 5 + rng.randrange(2)) % PAGE_WORDS)
    elif shape < 0.85:     # dense run: granule mask only
        start = rng.randrange(PAGE_WORDS - 20)
        record(page, start, rng.randrange(9, 20))
    else:                  # a notice without a bitmap (diff-derived mode)
        record(page, 0, bitmap=False)


def make_epoch(seed):
    """A causally consistent epoch: 1-12 pids with uneven interval counts
    (one pid can exceed 64, a machine word of ordinals), lock-style
    acquires at a per-seed rate (high rates give long happens-before
    chains and narrow windows), multi-page intervals, pages both read and
    written by one interval, and empty intervals."""
    rng = random.Random(seed)
    nprocs = rng.randrange(1, 13)
    sync_rate = rng.choice((0.0, 0.2, 0.6, 0.9))
    counts = [rng.choice((0, 1, 2, 5, 9)) for _ in range(nprocs)]
    if seed % 3 == 0:
        counts[rng.randrange(nprocs)] = 70
    seen = [[0] * nprocs for _ in range(nprocs)]
    intervals = []
    for _round in range(max(counts)):
        for pid in range(nprocs):
            if counts[pid] == 0:
                continue
            counts[pid] -= 1
            if rng.random() < sync_rate:
                other = rng.randrange(nprocs)
                if other != pid:
                    for r in range(nprocs):
                        seen[pid][r] = max(seen[pid][r], seen[other][r])
            seen[pid][pid] += 1
            rec = Interval(pid, seen[pid][pid], VectorClock(seen[pid]), 0,
                           PAGE_WORDS)
            for _ in range(rng.choice((0, 1, 1, 2, 4))):
                _touch(rng, rec, write=rng.random() < 0.6)
            if rng.random() < 0.3 and rec.write_pages:
                # Read a page this interval also wrote.
                rec.record_read(min(rec.write_pages),
                                rng.choice(COMMON_OFFSETS))
            rec.close()
            intervals.append(rec)
    rng.shuffle(intervals)  # the detector must not rely on arrival order
    return intervals, nprocs


class FailingTransport(Transport):
    """Exhausts the retry budget of every exchange with ``victim``."""

    def __init__(self, cost_model, victim):
        super().__init__(cost_model)
        self.victim = victim
        #: (tag, src, dst) of every send attempted, failed ones included.
        self.attempts = []

    def send(self, tag, src, dst, *args, **kwargs):
        self.attempts.append((tag, src, dst))
        if self.victim in (src, dst):
            raise RetryExhaustedError(tag, src, dst, 0, 0, 3)
        return super().send(tag, src, dst, *args, **kwargs)


def make_detector(nprocs, fast_path, coarse_filter, victim=None):
    cost = CostModel()
    transport = (Transport(cost) if victim is None
                 else FailingTransport(cost, victim))
    return RaceDetector(PAGE_WORDS, cost, WireSizer(max(nprocs, 1),
                                                    PAGE_WORDS),
                        transport, symbol_for=lambda addr: f"w{addr}",
                        fast_path=fast_path, coarse_filter=coarse_filter)


def page_rows(pages):
    return [(ov.page, ov.write_write, ov.a_read_b_write, ov.a_write_b_read)
            for ov in pages]


def observed(detector, clock):
    """Everything a caller of the detector can see after an epoch (the
    probe count apart: the engines differ in it by design)."""
    state = detector_state(detector)
    del state["actual_comparisons"]
    return dict(
        state,
        ledger=dict(clock.ledger.totals), now=clock.now,
        traffic=detector.transport.stats)


def run_centralized(intervals, nprocs, fast_path, coarse_filter,
                    victim=None, epochs=1):
    detector = make_detector(nprocs, fast_path, coarse_filter, victim)
    clock = VirtualClock()
    for epoch in range(epochs):
        # A second pass over the same intervals exercises the cross-epoch
        # first-occurrence dedup through ``_seen_keys``.
        detector.run_epoch(intervals, epoch, clock)
    return observed(detector, clock)


SEEDS = range(40)


@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_join_matches_pairwise_check_list(seed, coarse_filter):
    intervals, nprocs = make_epoch(seed)
    stats = PairSearchStats()
    reference = build_check_list(find_concurrent_pairs(intervals, stats))
    detector = make_detector(nprocs, True, coarse_filter)
    used = set()
    checks = hits = 0
    expected = []
    for entry in reference:
        used.add((entry.a.pid, entry.a.index))
        used.add((entry.b.pid, entry.b.index))
        pages = entry.pages
        if coarse_filter:
            pages, entry_checks, entry_hits = detector._filter_pages(entry)
            checks += entry_checks
            hits += entry_hits
        if pages:
            expected.append(checklist.CheckEntry(entry.a, entry.b, pages))

    index = PageIndex(intervals)
    search = PairSearchStats()
    conc, _work = index.scan(pair_blocks(index.by_pid), search)
    join = index.join(conc, coarse_filter)

    assert search.concurrent_pairs == stats.concurrent_pairs
    assert join.check_entries == len(reference)
    assert join.used == used
    assert (join.granule_checks, join.granule_hits) == (checks, hits)
    entries = index.entries(join.rows)
    assert [(entry_key(e), page_rows(e.pages)) for e in entries] == \
           [(entry_key(e), page_rows(e.pages)) for e in expected]
    assert index.needed(join.rows) == bitmaps_needed(expected)


@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_run_epoch_matches_reference_engine(seed, coarse_filter):
    intervals, nprocs = make_epoch(seed)
    fast = run_centralized(intervals, nprocs, True, coarse_filter, epochs=2)
    ref = run_centralized(intervals, nprocs, False, coarse_filter, epochs=2)
    assert fast == ref


@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_lost_interval_matches_reference_engine(seed, coarse_filter):
    intervals, nprocs = make_epoch(seed)
    rng = random.Random(seed)
    for rec in rng.sample(intervals, min(2, len(intervals))):
        rec.lost = True
    fast = run_centralized(intervals, nprocs, True, coarse_filter)
    ref = run_centralized(intervals, nprocs, False, coarse_filter)
    assert fast == ref


@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_failed_bitmap_exchange_matches_reference_engine(seed, coarse_filter):
    """An owner whose exchange exhausts the retry budget degrades its
    entries to page-granularity reports over the *unfiltered* pages —
    including entries the filter had emptied."""
    intervals, nprocs = make_epoch(seed)
    victim = 1 + seed % max(1, nprocs - 1)  # never the master (pid 0)
    fast = run_centralized(intervals, nprocs, True, coarse_filter, victim)
    ref = run_centralized(intervals, nprocs, False, coarse_filter, victim)
    assert fast == ref


def run_sharded(intervals, nprocs, coarse_filter, owners):
    detector = make_detector(nprocs, True, coarse_filter)
    plan = detector.plan_shards(intervals, owners)
    if plan is None:
        return None
    results, items = [], []
    for pid in owners:
        res = detector.compute_shard(plan.shards[pid], plan, 0,
                                     VirtualClock())
        results.append(res)
        items = RaceDetector.merge_shard_items(items, res.items)
    detector.commit_sharded(plan, results, items, 0, VirtualClock())
    return detector


@pytest.mark.parametrize("lost", [False, True])
@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_matches_reference_engine(seed, coarse_filter, lost):
    intervals, nprocs = make_epoch(seed)
    if lost and intervals:
        random.Random(seed).choice(intervals).lost = True
    owners = list(range(0, nprocs, 2)) or [0]
    sharded = run_sharded(intervals, nprocs, coarse_filter, owners)
    if sharded is None:
        assert len(owners) < 2 or len({r.pid for r in intervals}) < 2
        return
    ref = make_detector(nprocs, False, coarse_filter)
    ref.run_epoch(intervals, 0, VirtualClock())
    assert sharded.races == ref.races
    assert sharded.unverifiable == ref.unverifiable
    assert sharded.stats == ref.stats
    assert sharded._seen_keys == ref._seen_keys
    assert sharded._unverifiable_pair_keys == ref._unverifiable_pair_keys


def all_racing(pids):
    """One interval per pid, all concurrent, all writing word 0 of page 0:
    every process pair is a check-list entry with a race."""
    width = max(pids) + 1
    intervals = []
    for pid in pids:
        vc = [0] * width
        vc[pid] = 1
        rec = Interval(pid, 1, VectorClock(vc), 0, PAGE_WORDS)
        rec.record_write(0, 0)
        rec.close()
        intervals.append(rec)
    return intervals


def test_sharded_failed_exchange_propagates_and_mutates_nothing():
    """The sharded round shares its loop with the tolerant centralized
    one: it must still give up at the first failing exchange, ask no later
    owner, and leave the detector as it found it."""
    intervals = all_racing(range(4))
    detector = make_detector(4, True, False, victim=2)
    # Some state to preserve, including a tolerated failed exchange.
    detector.run_epoch(intervals, 0, VirtualClock())
    assert detector.stats.bitmap_rounds_failed == 1
    plan = detector.plan_shards(intervals, [0, 1])
    shard = plan.shards[0]
    # Block (2, 3) has no endpoint owner, so it lands on the coordinator,
    # whose round asks pids 1, 2 and 3 in that order.
    assert (2, 3) in shard.blocks
    before = (detector_state(detector),
              detector.transport.stats.bitmap_round_bytes)
    detector.transport.attempts.clear()
    clock = VirtualClock()
    with pytest.raises(RetryExhaustedError):
        detector.compute_shard(shard, plan, 1, clock)
    assert detector.transport.attempts == [
        ("shard_bitmap_request", 0, 1), ("shard_bitmap_reply", 1, 0),
        ("shard_bitmap_request", 0, 2)]
    assert (detector_state(detector),
            detector.transport.stats.bitmap_round_bytes) == before


def test_centralized_failed_exchange_asks_the_remaining_owners():
    intervals = all_racing(range(4))
    detector = make_detector(4, True, False, victim=2)
    detector.run_epoch(intervals, 0, VirtualClock())
    assert detector.transport.attempts == [
        ("bitmap_request", 0, 1), ("bitmap_reply", 1, 0),
        ("bitmap_request", 0, 2),
        ("bitmap_request", 0, 3), ("bitmap_reply", 3, 0)]
    # One bitmap per pid was needed; pid 2's never arrived.
    assert detector.stats.bitmaps_fetched == 3
    traffic = detector.transport.stats
    assert traffic.bitmap_round_bytes == traffic.total_bytes > 0


def test_run_epoch_is_one_span_for_the_tracer():
    """``benchmarks/spine/trace.py`` wraps these four names on the
    instance and sums their spans: a centralized epoch must enter
    ``run_epoch`` once and none of the others, nested or not."""
    intervals, nprocs = make_epoch(1)
    detector = make_detector(nprocs, True, True)
    entered = []

    def wrap(name):
        inner = getattr(detector, name)

        def wrapper(*args, **kwargs):
            entered.append(name)
            return inner(*args, **kwargs)
        setattr(detector, name, wrapper)

    for name in ("run_epoch", "plan_shards", "compute_shard",
                 "commit_sharded"):
        wrap(name)
    detector.run_epoch(intervals, 0, VirtualClock())
    assert detector.stats.overlapping_pairs > 0
    assert entered == ["run_epoch"]


def test_reference_engine_builds_no_page_index(monkeypatch):
    """``fast_path=False`` stays the literal pair-at-a-time pipeline: the
    shared plan step must not hand it the bit-parallel index."""
    from repro.core import detector as detector_module

    def forbidden(intervals):
        raise AssertionError("reference engine built a PageIndex")
    monkeypatch.setattr(detector_module, "PageIndex", forbidden)
    intervals, nprocs = make_epoch(1)
    detector = make_detector(nprocs, False, True)
    detector.run_epoch(intervals, 0, VirtualClock())
    assert detector.stats.overlapping_pairs > 0


def test_pair_search_floor_is_per_epoch_not_per_slice():
    """An epoch with no cross-process block still charges the pair search
    once; a blockless slice of a sharded epoch charges nothing."""
    cost = CostModel()
    detector = make_detector(3, True, True)
    clock = VirtualClock()
    detector.run_epoch(all_racing([1]), 0, clock)
    assert clock.ledger.totals[CostCategory.INTERVALS] == \
        cost.interval_compare * 1
    assert clock.now == cost.interval_compare * 1

    # Pid 0 coordinates but has no interval: both endpoints of the only
    # block are owners, so its own slice is empty.
    intervals = all_racing([1, 2])
    plan = detector.plan_shards(intervals, [0, 1, 2])
    assert plan.shards[0].blocks == []
    clock = VirtualClock()
    res = detector.compute_shard(plan.shards[0], plan, 1, clock)
    assert clock.now == 0 and not any(clock.ledger.slots)
    assert res.items == [] and res.comparisons == 0


@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_mixed_degraded_items_keep_check_list_order(seed, coarse_filter):
    """A lost interval *and* a failed exchange in one epoch: ``race``,
    ``page`` and ``unverifiable`` items interleave in the check list, and
    one dedup pass in entry-key order must report each kind in that
    order."""
    intervals, nprocs = make_epoch(seed)
    random.Random(seed).choice(intervals).lost = True
    victim = 1 + seed % max(1, nprocs - 1)
    fast = run_centralized(intervals, nprocs, True, coarse_filter, victim)
    ref = run_centralized(intervals, nprocs, False, coarse_filter, victim)
    assert fast == ref
    for reports in (fast["races"], fast["unverifiable"]):
        keys = [(r.a.pid, r.b.pid, r.a.index, r.b.index) for r in reports]
        assert keys == sorted(keys)


def test_generator_covers_the_shapes_it_promises():
    """The differential tests above are only as good as their inputs."""
    wide = both = empty = narrow = bloom = dense = shared_digest = False
    degraded = 0
    for seed in SEEDS:
        intervals, nprocs = make_epoch(seed)
        failed = run_centralized(intervals, nprocs, True, True,
                                 victim=1 + seed % max(1, nprocs - 1))
        degraded += (failed["stats"]["bitmap_rounds_failed"] > 0
                     and failed["stats"]["page_granularity_reports"] > 0)
        index = PageIndex(intervals)
        wide |= any(len(recs) > 64 for recs in index.by_pid.values())
        both |= any(rec.write_pages & rec.read_pages for rec in intervals)
        empty |= any(rec.is_empty for rec in intervals)
        stats = PairSearchStats()
        conc, _work = index.scan(pair_blocks(index.by_pid), stats)
        cross = sum(len(index.by_pid[p]) * len(index.by_pid[q])
                    for p, q in pair_blocks(index.by_pid))
        narrow |= 0 < stats.concurrent_pairs < cross / 4
        digests = {}
        for rec in intervals:
            for page in rec.write_pages:
                digest = rec.digest(page, "write")
                bloom |= digest[1] is not None and digest[0] != 0
                dense |= digest[1] is None
                digests.setdefault((page, digest), set()).add(rec.pid)
        shared_digest |= any(len(pids) > 1 for pids in digests.values())
    assert (wide and both and empty and narrow and bloom and dense
            and shared_digest)
    assert degraded >= 10


def count_calls(monkeypatch, *names):
    """Count the calls of ``names`` made through the check-list and
    detector modules' globals (constructors included)."""
    from repro.core import detector as detector_module
    built = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in (checklist, detector_module):
        for name in names:
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    return built


def test_fully_filtered_epoch_builds_no_per_pair_objects(monkeypatch):
    """N processes writing one page at words of distinct granules: every
    pair is a check-list entry and every one is filtered.  The join must
    construct no entry or page object for them and test digests per
    *class*, not per pair — so per-pair work cannot creep back."""
    nprocs, per_proc, page_words = 24, 4, 1024
    intervals = []
    for pid in range(nprocs):
        vc = [0] * nprocs
        for index in range(1, per_proc + 1):
            vc[pid] = index
            rec = Interval(pid, index, VectorClock(vc), 0, page_words)
            rec.record_write(7, 16 * pid)
            rec.close()
            intervals.append(rec)
    pairs = per_proc * per_proc * nprocs * (nprocs - 1) // 2
    built = count_calls(monkeypatch, "OverlapPage", "CheckEntry",
                        "digests_disjoint")
    cost = CostModel()
    detector = RaceDetector(page_words, cost, WireSizer(nprocs, page_words),
                            Transport(cost), symbol_for=str,
                            coarse_filter=True)
    assert detector.run_epoch(intervals, 0, VirtualClock()) == []
    assert detector.stats.overlapping_pairs == pairs
    assert detector.stats.granule_checks == pairs
    assert detector.stats.pairs_filtered == pairs
    assert detector.stats.intervals_used == len(intervals)
    assert detector.stats.bitmaps_fetched == 0
    assert built["OverlapPage"] == built["CheckEntry"] == 0
    assert 0 < built["digests_disjoint"] <= nprocs * nprocs


def test_hit_heavy_clean_epoch_builds_no_per_pair_objects(monkeypatch):
    """N processes write interleaved words of the same granules, densely
    enough that the digests carry no Bloom part: every pair is a
    check-list entry and a granule hit, whose bitmaps are fetched and
    compared, and none races.  Steps 4-5 of the clean epoch walk the
    join's masks: no entry or page object is built for those pairs."""
    nprocs, per_proc, page_words = 8, 2, 1024
    words = BLOOM_SPARSE_MAX + 1
    intervals = []
    for pid in range(nprocs):
        vc = [0] * nprocs
        for index in range(1, per_proc + 1):
            vc[pid] = index
            rec = Interval(pid, index, VectorClock(vc), 0, page_words)
            for k in range(words):
                rec.record_write(7, pid + nprocs * k)
            rec.close()
            intervals.append(rec)
    pairs = per_proc * per_proc * nprocs * (nprocs - 1) // 2
    built = count_calls(monkeypatch, "OverlapPage", "CheckEntry")
    cost = CostModel()
    detector = RaceDetector(page_words, cost, WireSizer(nprocs, page_words),
                            Transport(cost), symbol_for=str,
                            coarse_filter=True)
    assert detector.run_epoch(intervals, 0, VirtualClock()) == []
    assert detector.stats.overlapping_pairs == pairs
    assert detector.stats.granule_hits == pairs
    assert detector.stats.pairs_filtered == 0
    assert detector.stats.bitmap_comparisons == pairs
    assert detector.stats.bitmaps_fetched == len(intervals)
    assert built == {"OverlapPage": 0, "CheckEntry": 0}


# ---------------------------------------------------------------------- #
# Steps 4-5 of a clean epoch walk the join's rows; the reference engine
# walks check entries.  Their fetch sets and step-5 items must agree.
# ---------------------------------------------------------------------- #
def step5_slice(intervals, nprocs, fast_path, coarse_filter, mutate=None):
    """The one-slice result of a clean epoch: the fetch set, the bitmap
    comparisons, the candidate items and the clock.  ``mutate`` rewrites
    every row the join hands the fast path."""
    captured = []
    compute, join = RaceDetector._compute, PageIndex.join

    def capturing(self, *args, **kwargs):
        captured.append(compute(self, *args, **kwargs))
        return captured[-1]

    def mutated(self, conc, coarse_filter):
        out = join(self, conc, coarse_filter)
        out.rows = [(o, [mutate(row) for row in rows])
                    for o, rows in out.rows]
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RaceDetector, "_compute", capturing)
        if mutate is not None:
            patch.setattr(PageIndex, "join", mutated)
        detector = make_detector(nprocs, fast_path, coarse_filter)
        clock = VirtualClock()
        detector.run_epoch(intervals, 0, clock)
    (res,) = captured
    return dict(needed=res.join.needed,
                comparisons=res.bitmap_comparisons,
                items=[(item.key, item.kind, item.reports)
                       for item in res.items],
                ledger=dict(clock.ledger.totals), now=clock.now)


@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_row_walk_matches_entry_walk(seed, coarse_filter):
    intervals, nprocs = make_epoch(seed)
    rows = step5_slice(intervals, nprocs, True, coarse_filter)
    entries = step5_slice(intervals, nprocs, False, coarse_filter)
    assert rows == entries


def test_row_walk_corpus_reaches_reports():
    """Some epochs of the corpus above report races from several
    partners of one interval."""
    multi = 0
    for seed in SEEDS:
        intervals, nprocs = make_epoch(seed)
        items = step5_slice(intervals, nprocs, True, True)["items"]
        firsts = [key[0::2] for key, _kind, _reports in items]
        multi += len(firsts) > len(set(firsts))
    assert multi >= 10


#: Rows broken on purpose: the a-write/b-read combination dropped, and a
#: partner mask moved to the neighbouring ordinal.
ROW_MUTANTS = {
    "combination-dropped": lambda row: (row[0], row[1], row[2], 0),
    "partner-shifted": lambda row: (row[0], row[1] >> 1, row[2], row[3]),
}


@pytest.mark.parametrize("coarse_filter", [False, True])
@pytest.mark.parametrize("name", sorted(ROW_MUTANTS))
def test_a_broken_row_is_caught(name, coarse_filter):
    caught = 0
    for seed in SEEDS:
        intervals, nprocs = make_epoch(seed)
        broken = step5_slice(intervals, nprocs, True, coarse_filter,
                             ROW_MUTANTS[name])
        reference = step5_slice(intervals, nprocs, False, coarse_filter)
        caught += broken != reference
    assert caught >= 20
