"""Shared-access trace events.

With ``DsmConfig.track_access_trace`` enabled, the access layer appends one
:class:`TraceEvent` per shared access (range accesses produce one event with
``count > 1``).  This is exactly the information Adve et al.'s post-mortem
scheme logs to disk — the paper's point is that the online system does *not*
need to keep it; we keep it only to validate the online system against
oracles and to quantify the log-size savings (an ablation bench).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

#: Wire/log footprint of one encoded trace event: pid + interval + addr +
#: count + rw flag, 4 bytes each (what a post-mortem log would store).
TRACE_EVENT_BYTES = 20


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

    def words(self) -> Iterator[int]:
        """Word addresses touched."""
        return iter(range(self.addr, self.addr + self.count))

    @property
    def log_bytes(self) -> int:
        return TRACE_EVENT_BYTES
