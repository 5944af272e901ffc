"""Shared-access trace events, and the one fold every offline reader uses.

With ``DsmConfig.track_access_trace`` enabled, the access layer appends one
event per shared access (range accesses produce one event with
``count > 1``) to the run's :class:`AccessTrace`.  This is exactly the
information Adve et al.'s post-mortem scheme logs to disk — the paper's
point is that the online system does *not* need to keep it; we keep it
only to validate the online system against oracles and to quantify the
log-size savings (an ablation bench).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.errors import ConfigError

#: Wire/log footprint of one encoded trace event: pid + interval + addr +
#: count + rw flag, 4 bytes each (what a post-mortem log would store).
TRACE_EVENT_BYTES = 20

#: Sorted, disjoint ``[start, end)`` word ranges.
Ranges = List[Tuple[int, int]]

#: The two unsigned 64-bit words of an event.  ``who`` is
#: ``interval_index << INDEX_SHIFT | pid << 1 | is_write`` and ``where``
#: is ``addr << ADDR_SHIFT | count``: an event's group — interval, process
#: and side — is one integer, and ``who << 64 | where`` orders events by
#: group, then address.  The top field of each word (the interval index,
#: the address) overflows into ``array``'s own ``OverflowError``; the
#: fields below them are held in range by :func:`check_capacity`.
PID_BITS = 16
INDEX_SHIFT = PID_BITS + 1
ADDR_SHIFT = 32
_PID_MASK = (1 << PID_BITS) - 1
_ADDR_MASK = (1 << 64 - ADDR_SHIFT) - 1
_COUNT_MASK = (1 << ADDR_SHIFT) - 1
#: Each field's width: the widest value an event can carry is one less.
FIELD_BITS = {"pid": PID_BITS, "interval_index": 64 - INDEX_SHIFT,
              "addr": 64 - ADDR_SHIFT, "count": ADDR_SHIFT}


class TraceEvent(NamedTuple):
    """One shared memory access (or contiguous run of accesses), as
    iterating an :class:`AccessTrace` gives it back."""

    pid: int
    #: Index of the interval the access executed in (its vector clock is
    #: retrievable from the interval store / replay log).
    interval_index: int
    addr: int
    count: int
    is_write: bool


def pack(pid: int, interval_index: int, addr: int, count: int,
         is_write: bool) -> Tuple[int, int]:
    """An event's two words, refusing by name a field that does not fit
    (``Env._after_access`` packs the same layout inline)."""
    for name, value in (("pid", pid), ("interval_index", interval_index),
                        ("addr", addr), ("count", count)):
        if not 0 <= value < 1 << FIELD_BITS[name]:
            raise ValueError(f"trace event {name}={value} does not fit in "
                             f"{FIELD_BITS[name]} bits")
    return (interval_index << INDEX_SHIFT | pid << 1 | is_write,
            addr << ADDR_SHIFT | count)


def check_capacity(nprocs: int, segment_words: int) -> None:
    """Refuse, naming the setting, a traced run whose pids or segment the
    packed words cannot hold: then no pid, address or count of the run
    can overflow its field."""
    if nprocs > 1 << PID_BITS:
        raise ConfigError(f"track_access_trace records at most "
                          f"{1 << PID_BITS} processes: nprocs={nprocs}")
    if segment_words > _ADDR_MASK:
        raise ConfigError(f"track_access_trace records segments below "
                          f"{1 << ADDR_SHIFT} words: "
                          f"segment_words={segment_words}")


class AccessTrace:
    """A run's shared-access trace: two machine words per event in one
    ``array`` (see :func:`pack`), no Python object per access.  Iterating
    it gives :class:`TraceEvent`\\ s in recording order; :func:`fold` reads
    the words themselves."""

    __slots__ = ("words",)

    def __init__(self, events: Iterable[TraceEvent] = ()):
        self.words = array("Q")
        for event in events:
            self.words.extend(pack(*event))

    def __len__(self) -> int:
        return len(self.words) >> 1

    def __iter__(self) -> Iterator[TraceEvent]:
        words = iter(self.words)
        for who, where in zip(words, words):
            yield TraceEvent(who >> 1 & _PID_MASK, who >> INDEX_SHIFT,
                             where >> ADDR_SHIFT, where & _COUNT_MASK,
                             bool(who & 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessTrace):
            return NotImplemented
        return self.words == other.words


def fold(trace: AccessTrace
         ) -> Dict[Tuple[int, int], Tuple[Ranges, Ranges]]:
    """The trace read once: (pid, interval index) -> (the words it read,
    the words it wrote) as :data:`Ranges`.  The distinct events, as
    integer keys sorted by group and then address, each extend or follow
    the last range of their side: no two ranges of a side overlap or
    touch."""
    words = iter(trace.words)
    keys = sorted({who << 64 | where for who, where in zip(words, words)})
    out: Dict[Tuple[int, int], Tuple[Ranges, Ranges]] = {}
    group = -1
    ranges: Ranges = []
    lo = hi = 0
    for key in keys:
        who = key >> 64
        start = key >> ADDR_SHIFT & _ADDR_MASK
        end = start + (key & _COUNT_MASK)
        if who == group and start <= hi:
            if end > hi:
                hi = end
            continue
        if group >= 0:
            ranges.append((lo, hi))
        if who != group:
            group = who
            interval = who >> 1 & _PID_MASK, who >> INDEX_SHIFT
            ranges = out.setdefault(interval, ([], []))[who & 1]
        lo, hi = start, end
    if group >= 0:
        ranges.append((lo, hi))
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
