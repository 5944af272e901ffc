"""The window search one probe at a time — the executable spec of
:func:`repro.core.concurrency.concurrency_windows`.

This is the search as it stood before the block columns were hoisted:
every probe is one call of the paper's constant-time check
(:func:`repro.dsm.vector_clock.precedes`) on the interval objects
themselves, and every probe bumps ``stats.comparisons`` on the spot.  The
production generator must yield the same windows in the same order and
leave the same ``comparisons`` and ``concurrent_pairs`` behind — the
probe count is journalled (every commit record's
``actual_comparisons``) and reported (``core.detector.probes``), so the
midpoints are part of the stored format, not an implementation detail.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.concurrency import Block, PairSearchStats
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import precedes


def reference_windows(
        by_pid: Dict[int, List[Interval]], blocks: Iterable[Block],
        stats: PairSearchStats) -> Iterator[Tuple[int, int, int, int, int]]:
    """``(p, i, q, lo, hi)`` per non-empty window: ``by_pid[p][i]`` is
    concurrent with exactly ``by_pid[q][lo:hi]``."""
    for p, q in blocks:
        qs = by_pid[q]
        for i, a in enumerate(by_pid[p]):
            lo = first_not_before(a, qs, stats)
            hi = first_after(a, qs, stats)
            if hi > lo:
                stats.concurrent_pairs += hi - lo
                yield p, i, q, lo, hi


def first_not_before(a: Interval, qs: List[Interval],
                     stats: PairSearchStats) -> int:
    """Index of the first interval of q that did NOT happen-before a.

    b_k happened-before a  iff  a.vc[q] >= b_k.index; since indices are
    increasing, this predicate is monotone (true then false) -> bisect.
    """
    lo, hi = 0, len(qs)
    while lo < hi:
        mid = (lo + hi) // 2
        stats.comparisons += 1
        if precedes(qs[mid].pid, qs[mid].index, a.vc):
            lo = mid + 1
        else:
            hi = mid
    return lo


def first_after(a: Interval, qs: List[Interval],
                stats: PairSearchStats) -> int:
    """Index of the first interval of q that a happened-before.

    a happened-before b_k  iff  b_k.vc[p] >= a.index; vector-clock entries
    are non-decreasing along q's program order, so this predicate is
    monotone (false then true) -> bisect.
    """
    lo, hi = 0, len(qs)
    while lo < hi:
        mid = (lo + hi) // 2
        stats.comparisons += 1
        if precedes(a.pid, a.index, qs[mid].vc):
            hi = mid
        else:
            lo = mid + 1
    return lo
