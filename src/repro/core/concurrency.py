"""Concurrent-interval search (paper §4, step 2).

At a barrier the master holds every interval of the closing epoch.  Any two
intervals of *different* processes whose vector timestamps do not order them
are concurrent and must be screened for overlapping pages.  The paper uses
"a very simple interval comparison algorithm" with worst case
:math:`O(i^2 p^2)` pairwise constant-time checks, noting that intervals
from previous epochs need not be examined (the barrier orders them); we
implement the same, plus the cheap program-order refinement that intervals
of the same process are never compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.dsm.interval import Interval


@dataclass
class PairSearchStats:
    """Counters from one epoch's pair search."""

    intervals: int = 0
    comparisons: int = 0
    concurrent_pairs: int = 0

    def merge(self, other: "PairSearchStats") -> None:
        self.intervals += other.intervals
        self.comparisons += other.comparisons
        self.concurrent_pairs += other.concurrent_pairs


def group_by_pid(intervals: List[Interval]) -> Dict[int, List[Interval]]:
    """Split an epoch's intervals per process, index-ordered."""
    by_pid: Dict[int, List[Interval]] = {}
    for rec in intervals:
        by_pid.setdefault(rec.pid, []).append(rec)
    for recs in by_pid.values():
        recs.sort(key=lambda r: r.index)
    return by_pid


def find_concurrent_pairs(
        intervals: List[Interval],
        stats: PairSearchStats) -> Iterator[Tuple[Interval, Interval]]:
    """Yield every concurrent pair of intervals from different processes.

    Pairs are yielded in a deterministic order: processes ascending, then
    interval indices ascending.  Each vector-clock comparison is counted in
    ``stats`` (the harness charges the master's virtual clock per
    comparison, reproducing the paper's "Intervals" overhead component).
    """
    by_pid = group_by_pid(intervals)
    stats.intervals += len(intervals)
    pids = sorted(by_pid)
    for i, p in enumerate(pids):
        for q in pids[i + 1:]:
            for a in by_pid[p]:
                for b in by_pid[q]:
                    stats.comparisons += 1
                    if a.concurrent_with(b):
                        stats.concurrent_pairs += 1
                        yield (a, b)


#: A process-pair block ``(p, q)``, ``p < q``: all pairs of one interval
#: of p with one interval of q.
Block = Tuple[int, int]


def pair_blocks(by_pid: Dict[int, List[Interval]]) -> List[Block]:
    """Every cross-process block, in the naive enumeration's order."""
    pids = sorted(by_pid)
    return [(p, q) for i, p in enumerate(pids) for q in pids[i + 1:]]


def concurrency_windows(
        by_pid: Dict[int, List[Interval]], blocks: Iterable[Block],
        stats: PairSearchStats) -> Iterator[Tuple[int, int, int, int, int]]:
    """Yield ``(p, i, q, lo, hi)`` for every non-empty concurrency window
    of the process-pair ``blocks``: interval ``by_pid[p][i]`` is
    concurrent with exactly ``by_pid[q][lo:hi]``.

    For a fixed interval ``a`` of process p, process q's intervals are
    totally ordered, so the set concurrent with ``a`` is a *contiguous
    window*: everything before it happened-before ``a`` (transitively,
    because q's later intervals dominate its earlier ones) and everything
    after it happened-after.  Both window edges are found by binary
    search — O(i log i) probes per block instead of O(i^2).

    The records are closed, so what a probe reads is fixed per block: the
    two columns the searches compare against — q's interval indices and
    q's view of p (``vc[p]``) — are read out once, and every probe is one
    integer comparison against a column (the paper's constant-time check,
    :func:`~repro.dsm.vector_clock.precedes`, with both operands in
    hand).  ``stats.comparisons`` (one per probe) and
    ``stats.concurrent_pairs`` (the window widths) are added once per
    block, after its last window; ``tests/core/reference_windows.py``
    keeps the probe-at-a-time search this must agree with, midpoint for
    midpoint.
    """
    for p, q in blocks:
        qs = by_pid[q]
        n = len(qs)
        indices = [b.index for b in qs]
        seen_of_p = [b.vc.entries[p] for b in qs]
        probes = pairs = 0
        for i, a in enumerate(by_pid[p]):
            # First interval of q that did NOT happen-before a:
            # b happened-before a iff a.vc[q] >= b.index, and q's indices
            # increase, so the predicate is monotone (true then false).
            seen = a.vc.entries[q]
            first, hi = 0, n
            while first < hi:
                mid = (first + hi) // 2
                probes += 1
                if seen >= indices[mid]:
                    first = mid + 1
                else:
                    hi = mid
            # First interval of q that a happened-before:
            # a happened-before b iff b.vc[p] >= a.index, and clock entries
            # never decrease along q's program order (false then true).
            index = a.index
            after, hi = 0, n
            while after < hi:
                mid = (after + hi) // 2
                probes += 1
                if seen_of_p[mid] >= index:
                    hi = mid
                else:
                    after = mid + 1
            if after > first:
                pairs += after - first
                yield p, i, q, first, after
        stats.comparisons += probes
        stats.concurrent_pairs += pairs


def model_comparison_count(intervals: List[Interval]) -> int:
    """Comparisons the naive search *would* perform, computed analytically.

    :func:`find_concurrent_pairs` checks every cross-process interval pair
    exactly once, so its comparison count is a pure function of the
    per-process interval counts: the sum over unordered process pairs
    (p, q) of ``|I_p| * |I_q|``.  The fast-path detector runs the pruned
    search for real but charges *this* figure to the master's virtual
    clock, keeping the paper's cost model (Figure 3 "Intervals", Table 3)
    bit-identical while the Python wall-clock drops.
    """
    sizes: Dict[int, int] = {}
    for rec in intervals:
        sizes[rec.pid] = sizes.get(rec.pid, 0) + 1
    total = len(intervals)
    return (total * total - sum(n * n for n in sizes.values())) // 2


def find_concurrent_pairs_pruned(
        intervals: List[Interval],
        stats: PairSearchStats) -> Iterator[Tuple[Interval, Interval]]:
    """Pair search with the ordering-based bypass the paper alludes to
    ("synchronization and program order allow many of the comparisons to
    be bypassed", §4 step 2): the windows of :func:`concurrency_windows`
    expanded pair by pair.  The yielded pairs are identical to
    :func:`find_concurrent_pairs` (a property the tests verify).
    """
    by_pid = group_by_pid(intervals)
    stats.intervals += len(intervals)
    for p, i, q, lo, hi in concurrency_windows(by_pid, pair_blocks(by_pid),
                                               stats):
        a = by_pid[p][i]
        for b in by_pid[q][lo:hi]:
            yield (a, b)
