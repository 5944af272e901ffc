"""The window engine against its probe-at-a-time spec.

``concurrency_windows`` decides a block whose corners are unordered with
two integer comparisons (one window run for all of p) and bisects every
other block's two integer columns with ``bisect``, counting the probes
from a per-size table; ``tests/core/reference_windows.py`` keeps the
search it replaced.  Seeded random lock/barrier histories must give
identical windows, identical ``concurrent_pairs`` **and** identical
``comparisons``: the probe count is journalled in every commit record
(``actual_comparisons``) and reported as ``core.detector.probes``, so a
different midpoint is a stored-format change even when the windows agree.
``PageIndex.scan`` over the same histories must give the reference's
concurrency masks and probe work.
"""

import inspect
import random
import textwrap

import pytest

from repro.core import concurrency as concurrency_module
from repro.core.checklist import PageIndex, overlap_work
from repro.core.concurrency import (PairSearchStats, concurrency_windows,
                                    find_concurrent_pairs,
                                    find_concurrent_pairs_pruned, pair_blocks)
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import VectorClock
from tests.core.reference_windows import reference_windows

SHAPES = ("mixed", "no_sync", "chain", "barriers", "barrier_only",
          "lock_chained")
SEEDS = range(25)


class History:
    """Vector clocks of a lock/barrier history, LRC style: every
    synchronization operation closes the caller's interval (recorded with
    the clock it was opened under) and opens the next one."""

    def __init__(self, nprocs, rng=None):
        self.nprocs = nprocs
        #: Draws each record's notices (a few of eight pages), if given.
        self.rng = rng
        self.vcs = [[0] * nprocs for _ in range(nprocs)]
        for pid in range(nprocs):
            self.vcs[pid][pid] = 1
        self.opened = [list(vc) for vc in self.vcs]
        self.locks = {}
        self.recs = []

    def _close(self, pid):
        rec = Interval(pid, self.vcs[pid][pid],
                       VectorClock(self.opened[pid]), 0, 16)
        if self.rng is not None:
            for page in self.rng.sample(range(8), self.rng.randrange(3)):
                rec.record_write(page, self.rng.randrange(16))
            for page in self.rng.sample(range(8), self.rng.randrange(3)):
                rec.record_read(page, self.rng.randrange(16))
        self.recs.append(rec)

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
    h = History(nprocs, random.Random(f"notices-{shape}-{seed}"))
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
    elif shape in ("barrier_only", "lock_chained"):
        # One epoch between two barriers, after a first one: every clock
        # has seen the whole previous epoch.  Barrier-only: nothing in
        # the epoch orders two pids, so every block is unordered.  Lock
        # chained: a random subset of the pids also passes one lock
        # around (some of them releasing it first thing in the epoch, so
        # that a partner's clock names exactly their first interval).
        for pid in active:
            h.release(pid, 100 + pid)
        h.barrier(active)
        mark = len(h.recs)
        chained = {pid for pid in active if shape == "lock_chained"
                   and rng.random() < 0.5}
        for pid in single:
            budget[pid] = 0  # closes its arrival interval only
        while any(budget[pid] > 0 for pid in active):
            pid = rng.choice(active)
            if not spend(pid):
                continue
            if pid in chained and rng.random() < 0.6:
                if rng.random() < 0.5:
                    h.release(pid, 0)
                else:
                    h.acquire(pid, 0)
            else:
                h.release(pid, 100 + pid)
        h.barrier(active)
        recs = h.recs[mark:]
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


def expand(runs):
    """One ``(p, i, q, lo, hi)`` window per interval of each window run:
    the reference's shape."""
    return [(p, k, q, lo, hi) for p, i, j, q, lo, hi in runs
            for k in range(i, j)]


def search(windows, by_pid):
    stats = PairSearchStats()
    found = list(windows(by_pid, pair_blocks(by_pid), stats))
    return found, stats


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_windows_pairs_and_probes_match_the_reference(shape, seed):
    by_pid = history(shape, seed)
    runs, stats = search(concurrency_windows, by_pid)
    got = expand(runs)
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
            runs, _stats = search(concurrency_windows, by_pid)
            width = {}
            for p, _i, q, lo, hi in expand(runs):
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
                ps, qs = by_pid[p], by_pid[q]
                seen_q, seen_p = ps[-1].vc[q], qs[-1].vc[p]
                if seen_q < qs[0].index and seen_p < ps[0].index:
                    blocks.add("unordered")
                elif shape == "barrier_only":
                    blocks.add("ordered barrier-only block")
                # A corner where one side's clock names exactly the
                # other's first interval: ordered, though one comparison
                # off the unordered test.
                if seen_q == qs[0].index or seen_p == ps[0].index:
                    blocks.add("corner-touch")
    assert {2, 32} <= sizes
    assert blocks == {"empty", "one-record", "all-ordered", "all-concurrent",
                      "partial", "unordered", "corner-touch"}


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_scan_matches_the_reference_windows(shape, seed):
    """``PageIndex.scan``'s masks, probe work and counters are those of
    the reference windows expanded pair by pair."""
    by_pid = history(shape, seed)
    recs = [rec for pid in sorted(by_pid) for rec in by_pid[pid]]
    if not recs:
        return
    index = PageIndex(recs)
    stats = PairSearchStats()
    conc, probe_work = index.scan(pair_blocks(index.by_pid), stats)
    want, ref_stats = search(reference_windows, by_pid)
    ordinal = {(rec.pid, rec.index): o for o, rec in enumerate(index.recs)}
    ref_conc = [0] * len(recs)
    ref_work = 0
    for p, i, q, lo, hi in want:
        a = by_pid[p][i]
        for b in by_pid[q][lo:hi]:
            ref_conc[ordinal[a.pid, a.index]] |= 1 << ordinal[b.pid, b.index]
            ref_work += overlap_work(a, b)
    assert conc == ref_conc
    assert probe_work == ref_work
    assert stats.comparisons == ref_stats.comparisons
    assert stats.concurrent_pairs == ref_stats.concurrent_pairs


# ---------------------------------------------------------------------- #
# Broken window engines must be noticed.
# ---------------------------------------------------------------------- #
MUTANTS = {
    "corner-test-inclusive": ("ps[-1].vc.entries[q] < qs[0].index",
                              "ps[-1].vc.entries[q] <= qs[0].index"),
    "probe-table-shifted": ("tables = _PROBES",
                            "tables = [t[1:] + t[:1] for t in _PROBES]"),
}


def mutant(old, new):
    """``concurrency_windows`` with one edit."""
    source = textwrap.dedent(
        inspect.getsource(concurrency_module.concurrency_windows))
    assert source.count(old) == 1, old
    namespace = dict(vars(concurrency_module))
    exec(source.replace(old, new), namespace)
    return namespace["concurrency_windows"]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_broken_window_engine_is_caught(name):
    broken = mutant(*MUTANTS[name])
    caught = False
    for shape in SHAPES:
        for seed in SEEDS:
            by_pid = history(shape, seed)
            runs, stats = search(broken, by_pid)
            want, ref_stats = search(reference_windows, by_pid)
            caught |= expand(runs) != want or stats != ref_stats
    assert caught
