"""Shared-access trace events, and the one fold every offline reader uses.

With ``DsmConfig.track_access_trace`` enabled, the access layer appends one
:class:`TraceEvent` per shared access (range accesses produce one event with
``count > 1``).  This is exactly the information Adve et al.'s post-mortem
scheme logs to disk — the paper's point is that the online system does *not*
need to keep it; we keep it only to validate the online system against
oracles and to quantify the log-size savings (an ablation bench).
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Tuple

#: Wire/log footprint of one encoded trace event: pid + interval + addr +
#: count + rw flag, 4 bytes each (what a post-mortem log would store).
TRACE_EVENT_BYTES = 20

#: Sorted, disjoint ``[start, end)`` word ranges.
Ranges = List[Tuple[int, int]]


class TraceEvent(NamedTuple):
    """One shared memory access (or contiguous run of accesses): a tuple,
    built by the access layer in one C call and unpacked by the oracles."""

    pid: int
    #: Index of the interval the access executed in (its vector clock is
    #: retrievable from the interval store / replay log).
    interval_index: int
    addr: int
    count: int
    is_write: bool

    @property
    def log_bytes(self) -> int:
        return TRACE_EVENT_BYTES


def fold(trace: Iterable[TraceEvent]
         ) -> Dict[Tuple[int, int], Tuple[Ranges, Ranges]]:
    """The trace read once: (pid, interval index) -> (the words it read,
    the words it wrote) as :data:`Ranges`.  The distinct events, in address
    order, each extend or follow the last range of their side: no two
    ranges of a side overlap or touch."""
    out = defaultdict(lambda: ([], []))
    for pid, index, addr, count, is_write in sorted(set(trace),
                                                    key=itemgetter(2)):
        ranges = out[pid, index][is_write]
        if ranges and addr <= ranges[-1][1]:
            ranges[-1] = (ranges[-1][0], max(ranges[-1][1], addr + count))
        else:
            ranges.append((addr, addr + count))
    return out


def common_words(xs: Ranges, ys: Ranges) -> List[int]:
    """The words two :data:`Ranges` share, in order: a merge that expands
    only the overlaps, and four comparisons when the extents are apart."""
    words: List[int] = []
    if xs and ys and xs[0][0] < ys[-1][1] and ys[0][0] < xs[-1][1]:
        i = j = 0
        while i < len(xs) and j < len(ys):
            (x_start, x_end), (y_start, y_end) = xs[i], ys[j]
            words.extend(range(max(x_start, y_start), min(x_end, y_end)))
            i, j = (i + 1, j) if x_end < y_end else (i, j + 1)
    return words
