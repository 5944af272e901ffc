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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.dsm.interval import Interval


@dataclass
class PairSearchStats:
    """Counters from one epoch's pair search."""

    intervals: int = 0
    comparisons: int = 0
    concurrent_pairs: int = 0


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


def _extend_probe_tables(tables: List[List[int]], n: int) -> List[int]:
    """Grow ``tables`` up to ``tables[n]`` and return it.

    ``tables[n][r]`` is the number of probes the midpoint bisection over
    ``n`` entries makes when it ends at ``r``: its path depends on nothing
    else, because every probe at ``mid`` goes right exactly when
    ``mid < r``.  The first probe splits ``n`` at ``mid = n // 2`` into
    the bisections over ``mid`` and ``n - mid - 1`` entries, one probe
    deeper.
    """
    while len(tables) <= n:
        size = len(tables)
        mid = size // 2
        tables.append([probes + 1 for probes in tables[mid]]
                      + [probes + 1 for probes in tables[size - mid - 1]])
    return tables[n]


#: ``_PROBES[n][r]``: the probes of a midpoint bisection over ``n``
#: entries that ends at ``r`` (see :func:`_extend_probe_tables`), built
#: ahead for the block sizes epochs usually have and grown on demand.
_PROBES: List[List[int]] = [[0]]
_extend_probe_tables(_PROBES, 64)


def concurrency_windows(
        by_pid: Dict[int, List[Interval]], blocks: Iterable[Block],
        stats: PairSearchStats
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """Yield ``(p, i, j, q, lo, hi)`` for every non-empty window run of
    the process-pair ``blocks``: each interval of ``by_pid[p][i:j]`` is
    concurrent with exactly ``by_pid[q][lo:hi]``.

    For a fixed interval ``a`` of process p, process q's intervals are
    totally ordered, so the set concurrent with ``a`` is a *contiguous
    window*: everything before it happened-before ``a`` (transitively,
    because q's later intervals dominate its earlier ones) and everything
    after it happened-after.  Both window edges are found by binary
    search — O(i log i) probes per block instead of O(i^2) — on two
    columns read out of q's closed records once per block: q's interval
    indices and q's view of p (``vc[p]``).  ``bisect`` runs the search;
    :data:`_PROBES` gives the probes the paper's constant-time check
    (:func:`~repro.dsm.vector_clock.precedes`) would have made on the
    way, midpoint for midpoint.

    A block whose corners are unordered — p's last interval has not seen
    q's first, and q's last has not seen p's first — is one run: clocks
    never decrease along a process, so no interval of either side has
    seen any of the other's, and every window is the whole of q.  Two
    integer comparisons decide it.

    ``stats.comparisons`` (one per probe) and ``stats.concurrent_pairs``
    (the window widths) are added once per block, after its last run;
    ``tests/core/reference_windows.py`` keeps the probe-at-a-time search
    this must agree with.
    """
    tables = _PROBES
    for p, q in blocks:
        ps, qs = by_pid[p], by_pid[q]
        m, n = len(ps), len(qs)
        if not m or not n:
            continue
        table = tables[n] if n < len(tables) else _extend_probe_tables(
            tables, n)
        if (ps[-1].vc.entries[q] < qs[0].index
                and qs[-1].vc.entries[p] < ps[0].index):
            yield p, 0, m, q, 0, n
            stats.comparisons += m * (table[0] + table[n])
            stats.concurrent_pairs += m * n
            continue
        indices = [b.index for b in qs]
        seen_of_p = [b.vc.entries[p] for b in qs]
        probes = pairs = 0
        for i, a in enumerate(ps):
            # First interval of q that did NOT happen-before a: b
            # happened-before a iff a.vc[q] >= b.index.
            first = bisect_right(indices, a.vc.entries[q])
            # First interval of q that a happened-before: a
            # happened-before b iff b.vc[p] >= a.index.
            after = bisect_left(seen_of_p, a.index)
            probes += table[first] + table[after]
            if after > first:
                pairs += after - first
                yield p, i, i + 1, q, first, after
        stats.comparisons += probes
        stats.concurrent_pairs += pairs


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
    for p, i, j, q, lo, hi in concurrency_windows(
            by_pid, pair_blocks(by_pid), stats):
        partners = by_pid[q][lo:hi]
        for a in by_pid[p][i:j]:
            for b in partners:
                yield (a, b)
