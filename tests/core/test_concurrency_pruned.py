"""The pruned (binary-search) pair search and the window-mask / page-index
fast-path primitives: equivalence with the naive reference, and the
savings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checklist import (PageIndex, build_check_list,
                                  build_check_list_fast, overlap_work)
from repro.core.concurrency import (PairSearchStats, find_concurrent_pairs,
                                    find_concurrent_pairs_pruned,
                                    group_by_pid, pair_blocks)
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import VectorClock


def random_epoch(seed: int, nprocs: int, per_proc: int, notices: bool = False):
    """Generate a causally-consistent epoch: each process's vector clock
    grows monotonically, occasionally observing other processes' closed
    intervals (like lock traffic would).  With ``notices``, each interval
    additionally reads/writes a few random pages from a small pool so
    check-list construction has material to work on."""
    rng = random.Random(seed)
    seen = [[0] * nprocs for _ in range(nprocs)]
    closed = [0] * nprocs
    intervals = []
    for _round in range(per_proc):
        for pid in range(nprocs):
            # Occasionally acquire from a random other process.
            if rng.random() < 0.4:
                other = rng.randrange(nprocs)
                if other != pid:
                    for r in range(nprocs):
                        seen[pid][r] = max(seen[pid][r], seen[other][r])
                    seen[pid][other] = max(seen[pid][other], closed[other])
            seen[pid][pid] += 1
            closed[pid] = seen[pid][pid]
            rec = Interval(pid, seen[pid][pid], VectorClock(seen[pid]), 0, 16)
            if notices:
                for page in rng.sample(range(8), rng.randrange(0, 3)):
                    rec.record_write(page, rng.randrange(16))
                for page in rng.sample(range(8), rng.randrange(0, 3)):
                    rec.record_read(page, rng.randrange(16))
            intervals.append(rec)
    return intervals


def pair_keys(pairs):
    return {((a.pid, a.index), (b.pid, b.index)) for a, b in pairs}


@pytest.mark.parametrize("seed", range(10))
def test_pruned_equals_naive(seed):
    intervals = random_epoch(seed, nprocs=4, per_proc=8)
    naive = pair_keys(find_concurrent_pairs(intervals, PairSearchStats()))
    pruned = pair_keys(
        find_concurrent_pairs_pruned(intervals, PairSearchStats()))
    assert naive == pruned


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=25, deadline=None)
def test_pruned_equals_naive_property(seed, nprocs, per_proc):
    intervals = random_epoch(seed, nprocs, per_proc)
    naive = pair_keys(find_concurrent_pairs(intervals, PairSearchStats()))
    pruned = pair_keys(
        find_concurrent_pairs_pruned(intervals, PairSearchStats()))
    assert naive == pruned


def test_pruned_needs_fewer_comparisons_on_ordered_epochs():
    """Heavily-synchronized epochs (long happens-before chains) are where
    the bypass pays: O(i log i) vs O(i^2) comparisons."""
    intervals = random_epoch(7, nprocs=4, per_proc=40)
    naive_stats, pruned_stats = PairSearchStats(), PairSearchStats()
    list(find_concurrent_pairs(intervals, naive_stats))
    list(find_concurrent_pairs_pruned(intervals, pruned_stats))
    assert pruned_stats.comparisons < naive_stats.comparisons / 3
    assert pruned_stats.concurrent_pairs == naive_stats.concurrent_pairs


def entry_key(entry):
    return ((entry.a.pid, entry.a.index), (entry.b.pid, entry.b.index),
            [(ov.page, ov.write_write, ov.a_read_b_write, ov.a_write_b_read)
             for ov in entry.pages])


def model_comparison_count(intervals):
    """Comparisons the naive search *would* perform, computed analytically.

    :func:`find_concurrent_pairs` checks every cross-process interval pair
    exactly once, so its comparison count is a pure function of the
    per-process interval counts: the sum over unordered process pairs
    (p, q) of ``|I_p| * |I_q|``.  The fast-path detector runs the pruned
    search for real but charges *this* figure to the master's virtual
    clock, as the sum of its blocks' weights, keeping the paper's cost
    model (Figure 3 "Intervals", Table 3) bit-identical.
    """
    sizes = {}
    for rec in intervals:
        sizes[rec.pid] = sizes.get(rec.pid, 0) + 1
    total = len(intervals)
    return (total * total - sum(n * n for n in sizes.values())) // 2


@pytest.mark.parametrize("seed", range(10))
def test_model_comparison_count_matches_naive(seed):
    intervals = random_epoch(seed, nprocs=4, per_proc=8)
    stats = PairSearchStats()
    list(find_concurrent_pairs(intervals, stats))
    assert model_comparison_count(intervals) == stats.comparisons
    # ... which is what the detector charges: the block weights' sum.
    by_pid = group_by_pid(intervals)
    assert sum(len(by_pid[p]) * len(by_pid[q])
               for p, q in pair_blocks(by_pid)) == stats.comparisons


@pytest.mark.parametrize("seed", range(10))
def test_scan_windows_aggregates_match_naive(seed):
    intervals = random_epoch(seed, nprocs=4, per_proc=8, notices=True)
    naive_stats = PairSearchStats()
    naive_pairs = list(find_concurrent_pairs(intervals, naive_stats))
    stats = PairSearchStats()
    index = PageIndex(intervals)
    conc, probe_work = index.scan(pair_blocks(index.by_pid), stats)
    assert stats.concurrent_pairs == naive_stats.concurrent_pairs
    assert probe_work == sum(overlap_work(a, b) for a, b in naive_pairs)
    # The window masks hold exactly the naive pairs, higher pid on the
    # bit side.
    assert sorted(((a.pid, a.index), (index.recs[o].pid, index.recs[o].index))
                  for a, mask in zip(index.recs, conc)
                  for o in range(mask.bit_length()) if mask >> o & 1) == \
           sorted(((a.pid, a.index), (b.pid, b.index))
                  for a, b in naive_pairs)


@pytest.mark.parametrize("seed", range(10))
def test_indexed_check_list_matches_reference(seed):
    intervals = random_epoch(seed, nprocs=4, per_proc=8, notices=True)
    reference = build_check_list(
        find_concurrent_pairs(intervals, PairSearchStats()))
    fast = build_check_list_fast(intervals)
    assert [entry_key(e) for e in fast] == [entry_key(e) for e in reference]


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=25, deadline=None)
def test_indexed_check_list_matches_reference_property(seed, nprocs, per_proc):
    intervals = random_epoch(seed, nprocs, per_proc, notices=True)
    reference = build_check_list(
        find_concurrent_pairs(intervals, PairSearchStats()))
    fast = build_check_list_fast(intervals)
    assert [entry_key(e) for e in fast] == [entry_key(e) for e in reference]


def test_pruned_on_fully_concurrent_epoch():
    """No synchronization at all: every cross-process pair is concurrent;
    the pruned search must still enumerate all of them."""
    intervals = []
    for pid in range(3):
        vc = [0, 0, 0]
        for idx in range(1, 4):
            vc[pid] = idx
            intervals.append(Interval(pid, idx, VectorClock(vc), 0, 16))
    stats = PairSearchStats()
    pairs = pair_keys(find_concurrent_pairs_pruned(intervals, stats))
    assert len(pairs) == 3 * 9  # 3 proc pairs x 3 x 3
