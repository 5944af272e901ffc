"""Race reports.

The paper's system "prints the address of the affected variable" together
with the interval indexes (§4 step 5, §6.1); combined with the symbol table
this identifies the variable and synchronization context.  A
:class:`RaceReport` — a tuple, one per reported word — carries all of that
plus the epoch, for first-race filtering and replay-based PC attribution.
The tuple is all a run keeps per reported word: its symbol string is
shared with every report of its address, and each of its two
:class:`IntervalRef` with every report of the same detection pass that
names the same side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Tuple


class RaceKind(enum.Enum):
    WRITE_WRITE = "write-write"
    READ_WRITE = "read-write"


@dataclass(frozen=True)
class IntervalRef:
    """Identifies one side of a race: which interval touched the word, and
    how (read or write).  Immutable, so step 5 builds one per ``(pid,
    index, access)`` of a detection slice and every report of that side
    shares it.  A dataclass, not a tuple: ``index`` would shadow
    ``tuple.index``."""

    pid: int
    index: int
    access: str  # "read" | "write"
    sync_label: str = ""

    def __str__(self) -> str:
        return f"P{self.pid} interval {self.index} ({self.access})"


class RaceReport(NamedTuple):
    """One detected data race on one shared word.

    A tuple of its eleven fields, in the order below: step 5 builds one
    per common bitmap word with a single ``tuple.__new__`` call, from the
    segment's one symbol string per address and the slice's shared
    interval refs.  The commit dedups it as bit ``offset`` of one mask
    per comparison group: its :meth:`key` with the address cut to the
    page.  Keyword construction, the defaults and the methods are a
    record's; equality, hashing and iteration are the tuple's — a report
    equals the plain tuple of its fields.

    Attributes:
        kind: write-write or read-write.
        addr: Shared-segment word address of the affected variable.
        symbol: ``name[+offset]`` resolved through the allocator's symbol
            table (§6.1 reference identification).
        page: Page containing the address.
        offset: Word offset within the page.
        epoch: Barrier epoch in which both intervals live.
        a, b: The two unordered accesses (pid, interval index, kind).
        granularity: ``"word"`` for the exact bitmap-intersected report;
            ``"page"`` when the bitmap fetch exhausted its retries on a
            lossy network and the detector conservatively reported the
            whole overlapping page instead of silently dropping the check
            entry (``addr``/``offset`` then point at the page base).
        verdict: ``"race"`` for an actual detected race; ``"unverifiable"``
            when a node crash destroyed the word bitmaps of one of the
            intervals before the check could run (recovery without a
            checkpoint), so the concurrent overlapping pair can neither be
            confirmed nor refuted.  Unverifiable entries are always
            page-granularity and never silently dropped — soundness of the
            degraded detector depends on surfacing them.
        lost_intervals: For unverifiable entries, the ``P<pid>:<index>``
            ids of the crash-lost intervals involved.
    """

    kind: RaceKind
    addr: int
    symbol: str
    page: int
    offset: int
    epoch: int
    a: IntervalRef
    b: IntervalRef
    granularity: str = "word"
    verdict: str = "race"
    lost_intervals: Tuple[str, ...] = ()

    def key(self) -> Tuple:
        """Deduplication key: the same word/interval pair reported once,
        regardless of comparison order (the two sides ascending)."""
        a, b = self.a, self.b
        side_a = (a.pid, a.index, a.access)
        side_b = (b.pid, b.index, b.access)
        if side_b < side_a:
            side_a, side_b = side_b, side_a
        return (self.kind, self.granularity, self.verdict, self.addr,
                side_a, side_b)

    def format(self) -> str:
        if self.verdict == "unverifiable":
            lost = ", ".join(self.lost_intervals)
            return (f"UNVERIFIABLE (crash-lost metadata, "
                    f"{self.kind.value}) on {self.symbol} "
                    f"(page={self.page}) epoch {self.epoch}: "
                    f"{self.a} vs {self.b} [lost: {lost}]")
        if self.granularity == "page":
            return (f"POSSIBLE DATA RACE (page-granularity, "
                    f"{self.kind.value}) on {self.symbol} "
                    f"(page={self.page}) epoch {self.epoch}: "
                    f"{self.a} vs {self.b} "
                    f"[word bitmaps unavailable: retry budget exhausted]")
        return (f"DATA RACE ({self.kind.value}) on {self.symbol} "
                f"(addr={self.addr}, page={self.page}+{self.offset}) "
                f"epoch {self.epoch}: {self.a} vs {self.b}")

    def __str__(self) -> str:
        return self.format()


def involves_symbol(report: RaceReport, name: str) -> bool:
    """True if the report's resolved symbol is ``name`` or an offset into
    it — convenient in tests and examples."""
    return report.symbol == name or report.symbol.startswith(name + "+")
