"""The hoisted-column window search against its probe-at-a-time spec.

``concurrency_windows`` reads two integer columns per block and bisects
them in line; ``tests/core/reference_windows.py`` keeps the search it
replaced.  Seeded random lock/barrier histories must give identical
windows, identical ``concurrent_pairs`` **and** identical ``comparisons``:
the probe count is journalled in every commit record
(``actual_comparisons``) and reported as ``core.detector.probes``, so a
different midpoint is a stored-format change even when the windows agree.
"""

import random

import pytest

from repro.core.concurrency import (PairSearchStats, concurrency_windows,
                                    find_concurrent_pairs,
                                    find_concurrent_pairs_pruned, pair_blocks)
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import VectorClock
from tests.core.reference_windows import reference_windows

SHAPES = ("mixed", "no_sync", "chain", "barriers")
SEEDS = range(25)


class History:
    """Vector clocks of a lock/barrier history, LRC style: every
    synchronization operation closes the caller's interval (recorded with
    the clock it was opened under) and opens the next one."""

    def __init__(self, nprocs):
        self.nprocs = nprocs
        self.vcs = [[0] * nprocs for _ in range(nprocs)]
        for pid in range(nprocs):
            self.vcs[pid][pid] = 1
        self.opened = [list(vc) for vc in self.vcs]
        self.locks = {}
        self.recs = []

    def _close(self, pid):
        self.recs.append(Interval(pid, self.vcs[pid][pid],
                                  VectorClock(self.opened[pid]), 0, 16))

    def _open(self, pid):
        self.vcs[pid][pid] += 1
        self.opened[pid] = list(self.vcs[pid])

    def _observe(self, pid, other):
        vc = self.vcs[pid]
        for r, seen in enumerate(other):
            if seen > vc[r]:
                vc[r] = seen

    def acquire(self, pid, lid):
        self._close(pid)
        if lid in self.locks:
            self._observe(pid, self.locks[lid])
        self._open(pid)

    def release(self, pid, lid):
        self._close(pid)
        self.locks[lid] = list(self.vcs[pid])
        self._open(pid)

    def barrier(self, pids):
        for pid in pids:
            self._close(pid)
        horizon = [max(self.vcs[pid][r] for pid in pids)
                   for r in range(self.nprocs)]
        for pid in pids:
            self._observe(pid, horizon)
            self._open(pid)


def history(shape, seed):
    """``by_pid`` of one generated epoch.  Some pids stay silent (an empty
    side of every block they are in) and some close a single interval."""
    rng = random.Random(f"{shape}-{seed}")
    nprocs = rng.choice((2, 3, 5, 8, 16, 32))
    h = History(nprocs)
    silent = {pid for pid in range(nprocs) if rng.random() < 0.15}
    active = [pid for pid in range(nprocs) if pid not in silent]
    single = {pid for pid in active if rng.random() < 0.15}
    budget = {pid: 1 if pid in single else rng.randrange(2, 14)
              for pid in active}

    def spend(pid):
        budget[pid] -= 1
        return budget[pid] >= 0

    if shape == "chain":
        # A token passed pid to pid: everything one holder does is ordered
        # before everything the next one does.
        for pid in active:
            h.acquire(pid, 0)
            while spend(pid):
                h.release(pid, 100 + pid)
            h.release(pid, 0)
        # The start-up intervals (closed at the first acquire, before any
        # token was seen) are the only concurrent ones: leave them out.
        recs = [rec for rec in h.recs if rec.index > 1]
    else:
        nlocks = rng.randrange(1, 4)
        while active and any(budget[pid] > 0 for pid in active):
            pid = rng.choice(active)
            if not spend(pid):
                continue
            roll = rng.random()
            if shape == "no_sync":
                h.release(pid, 100 + pid)  # private lock: orders nothing
            elif shape == "barriers" and roll < 0.1:
                h.barrier(active)
            elif roll < 0.55:
                h.acquire(pid, rng.randrange(nlocks))
            else:
                h.release(pid, rng.randrange(nlocks))
        recs = h.recs
    by_pid = {pid: [] for pid in range(nprocs)}
    for rec in recs:
        by_pid[rec.pid].append(rec)
    return by_pid


def search(windows, by_pid):
    stats = PairSearchStats()
    found = list(windows(by_pid, pair_blocks(by_pid), stats))
    return found, stats


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_windows_pairs_and_probes_match_the_reference(shape, seed):
    by_pid = history(shape, seed)
    got, stats = search(concurrency_windows, by_pid)
    want, ref_stats = search(reference_windows, by_pid)
    assert got == want
    assert stats.concurrent_pairs == ref_stats.concurrent_pairs
    assert stats.comparisons == ref_stats.comparisons
    # ... and the windows are the naive O(i^2 p^2) search's pairs.
    recs = [rec for pid in sorted(by_pid) for rec in by_pid[pid]]
    naive = [(a.pid, a.index, b.pid, b.index)
             for a, b in find_concurrent_pairs(recs, PairSearchStats())]
    assert [(p, by_pid[p][i].index, q, b.index)
            for p, i, q, lo, hi in got for b in by_pid[q][lo:hi]] == naive


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_pair_search_counts_what_the_reference_counts(seed):
    by_pid = history("mixed", seed)
    recs = [rec for pid in sorted(by_pid) for rec in by_pid[pid]]
    stats = PairSearchStats()
    list(find_concurrent_pairs_pruned(recs, stats))
    grouped = {pid: rs for pid, rs in by_pid.items() if rs}
    _want, ref_stats = search(reference_windows, grouped)
    assert stats.intervals == len(recs)
    assert stats.comparisons == ref_stats.comparisons
    assert stats.concurrent_pairs == ref_stats.concurrent_pairs


def test_the_corpus_has_the_block_shapes_it_promises():
    sizes, blocks = set(), set()
    for shape in SHAPES:
        for seed in SEEDS:
            by_pid = history(shape, seed)
            sizes.add(len(by_pid))
            windows, _stats = search(concurrency_windows, by_pid)
            width = {}
            for p, _i, q, lo, hi in windows:
                width[p, q] = width.get((p, q), 0) + hi - lo
            for p, q in pair_blocks(by_pid):
                n, m = len(by_pid[p]), len(by_pid[q])
                if not n or not m:
                    blocks.add("empty")
                    continue
                if n == 1 or m == 1:
                    blocks.add("one-record")
                if n > 1 and m > 1:
                    pairs = width.get((p, q), 0)
                    blocks.add("all-ordered" if pairs == 0 else
                               "all-concurrent" if pairs == n * m else
                               "partial")
    assert {2, 32} <= sizes
    assert blocks == {"empty", "one-record", "all-ordered", "all-concurrent",
                      "partial"}


def test_counts_land_once_per_block():
    """A block's probes and pairs are added after its last window, not
    probe by probe: totals are exact once the generator is exhausted."""
    by_pid = history("no_sync", 1)
    stats = PairSearchStats()
    windows = concurrency_windows(by_pid, pair_blocks(by_pid), stats)
    next(windows)
    assert (stats.comparisons, stats.concurrent_pairs) == (0, 0)
    list(windows)
    _want, ref_stats = search(reference_windows, by_pid)
    assert stats == ref_stats
