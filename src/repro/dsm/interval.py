"""Intervals: the unit of ordering in LRC (paper §3.1).

A process's execution is divided into intervals delimited by acquire and
release operations.  Each interval carries:

* its owner pid and per-process index,
* a vector timestamp (:class:`~repro.dsm.vector_clock.VectorClock`) that
  encodes everything the owner had seen when the interval began,
* *write notices* — the set of pages written during the interval (base LRC
  metadata, needed for invalidations), and
* with detection enabled, *read notices* and per-page word bitmaps — the
  paper's additions (§4, modifications i and ii).

Bitmaps remain on the creating node; only the notice lists travel with
synchronization messages.  The detector fetches bitmaps lazily in the extra
barrier round (§4, step 4).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.bitmap import (Bitmap, Digest, coarse_digest,
                               digest_has_bloom)
from repro.dsm.vector_clock import VectorClock, concurrent
from repro.net.message import WireSizer


class Interval:
    """One interval of one process.

    *Sealing contract.*  A record is mutable while it is open and frozen
    by :meth:`close`; the one legal mutation afterwards is
    :meth:`merge_write_bitmap` (the §6.5 diff merge at the closing
    release).  Everything derived from the notice lists and bitmaps — the
    coarse digests (:meth:`digest`) and the wire figures
    (:meth:`wire_figures`) — is therefore computed at most once per
    closed record and kept on the record itself; it is never kept while
    the interval is open, and the merge drops what it outdates.

    *Bitmap ⇒ notice.*  A page with a read (write) bitmap is in
    ``read_pages`` (``write_pages``): ``record_*``, the merge and restore
    insert both, so ``Env``'s warm path sets bits in a bitmap it finds.
    """

    __slots__ = ("pid", "index", "vc", "epoch", "write_pages", "read_pages",
                 "write_bitmaps", "read_bitmaps", "closed",
                 "page_size_words", "sync_label", "lost", "_digests",
                 "_wire")

    def __init__(self, pid: int, index: int, vc: VectorClock, epoch: int,
                 page_size_words: int, sync_label: str = ""):
        self.pid = pid
        self.index = index
        self.vc = vc  # snapshot; not mutated after creation
        self.epoch = epoch
        self.page_size_words = page_size_words
        #: Pages written during the interval (-> write notices).
        self.write_pages: Set[int] = set()
        #: Pages read during the interval (-> read notices; detection only).
        self.read_pages: Set[int] = set()
        self.write_bitmaps: Dict[int, Bitmap] = {}
        self.read_bitmaps: Dict[int, Bitmap] = {}
        self.closed = False
        #: Human-readable description of the synchronization op that opened
        #: the interval (for race reports).
        self.sync_label = sync_label
        #: Crash tolerance: True when the owning node died without a
        #: checkpoint and this interval's word bitmaps went with it.  The
        #: page-level notices survive (they travelled on synchronization
        #: messages), so the interval still enters the concurrency search
        #: and the check list — but any check pair touching it is reported
        #: as ``verdict="unverifiable"`` instead of being bitmap-resolved.
        self.lost = False
        #: Finalized coarse digests, keyed (page, "write"|"read"), cached
        #: once the interval is closed (see :meth:`digest`).
        self._digests: Dict[Tuple[int, str], Digest] = {}
        #: Sealed ``(body, read-notice, digest)`` bytes of the closed
        #: record (see :meth:`wire_figures`); ``None`` until first priced.
        self._wire: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------ #
    # Access recording (called by the instrumentation runtime).
    # ------------------------------------------------------------------ #
    def record_write(self, page: int, offset: int, count: int = 1,
                     bitmap: bool = True) -> None:
        """Record ``count`` consecutive written words on ``page`` starting
        at word ``offset``."""
        if self.closed:
            raise ValueError(f"interval {self!r} is closed")
        self.write_pages.add(page)
        if bitmap:
            bm = self.write_bitmaps.get(page)
            if bm is None:
                bm = self.write_bitmaps[page] = Bitmap(self.page_size_words)
            bm.set_range(offset, count)

    def record_read(self, page: int, offset: int, count: int = 1,
                    bitmap: bool = True) -> None:
        """Record ``count`` consecutive read words on ``page``."""
        if self.closed:
            raise ValueError(f"interval {self!r} is closed")
        self.read_pages.add(page)
        if bitmap:
            bm = self.read_bitmaps.get(page)
            if bm is None:
                bm = self.read_bitmaps[page] = Bitmap(self.page_size_words)
            bm.set_range(offset, count)

    def merge_write_bitmap(self, page: int, bm: Bitmap) -> None:
        """OR a diff-derived write bitmap into the interval (§6.5 mode).

        Unlike the instrumentation paths, this is legal on a *closed*
        interval: the multi-writer protocol produces diffs exactly when
        the interval closes (at the release), which is when the derived
        write bitmap becomes known.
        """
        self.write_pages.add(page)
        mine = self.write_bitmaps.get(page)
        if mine is None:
            self.write_bitmaps[page] = bm.copy()
        else:
            mine.union_update(bm)
        # The merged bitmap supersedes any digest finalized earlier, and
        # with it the sealed wire figures (a new notice, a changed digest).
        self._digests.pop((page, "write"), None)
        self._wire = None

    def close(self) -> None:
        """Freeze the interval at the release/acquire that ends it."""
        self.closed = True

    # ------------------------------------------------------------------ #
    # Ordering.
    # ------------------------------------------------------------------ #
    def concurrent_with(self, other: "Interval") -> bool:
        """Constant-time happens-before-1 concurrency test (paper §4)."""
        return concurrent(self.pid, self.index, self.vc,
                          other.pid, other.index, other.vc)

    @property
    def is_empty(self) -> bool:
        """No shared accesses recorded: can never participate in a race."""
        return not self.write_pages and not self.read_pages

    # ------------------------------------------------------------------ #
    # Wire accounting.
    # ------------------------------------------------------------------ #
    def wire_size(self, sizer: WireSizer, with_read_notices: bool) -> int:
        """Encoded size of the interval record in a synchronization
        message.  Read notices are the detector's addition: with detection
        off the read-notice list (header included) is absent entirely, so
        the size delta equals :meth:`read_notice_wire_size` exactly."""
        size = (sizer.ints(2) + sizer.vector_clock()
                + sizer.notice_list(len(self.write_pages)))
        if with_read_notices:
            size += self.read_notice_wire_size(sizer)
        return size

    def read_notice_wire_size(self, sizer: WireSizer) -> int:
        """Bytes attributable to the read-notice list alone (excludes the
        one-int list header that base CVM would not send: with detection
        off the list is absent entirely, so the whole list is overhead)."""
        return sizer.notice_list(len(self.read_pages))

    def wire_figures(self, sizer: WireSizer, with_read_notices: bool,
                     with_digests: bool) -> Tuple[int, int, int]:
        """``(body, read-notice, digest)`` bytes this record adds to a
        consistency payload: :meth:`wire_size`, and — when the run ships
        them — :meth:`read_notice_wire_size` and :meth:`digest_wire_size`
        (0 otherwise).  A closed record is priced once and returns the
        same tuple on every later visit; an open one is priced afresh
        each time.  The memo is not keyed by the arguments: a record
        belongs to one system, whose sizer and flags are fixed for the
        run."""
        figures = self._wire
        if figures is None:
            figures = (
                self.wire_size(sizer, with_read_notices),
                self.read_notice_wire_size(sizer) if with_read_notices else 0,
                self.digest_wire_size(sizer) if with_digests else 0)
            if self.closed:
                self._wire = figures
        return figures

    # ------------------------------------------------------------------ #
    # Coarse digests (two-level detection filter).
    # ------------------------------------------------------------------ #
    def digest(self, page: int, kind: str) -> Digest:
        """The coarse digest the filter consults for one (page, kind)
        access set — finalized lazily from the word bitmap's incremental
        granule mask, cached once the interval is closed (open intervals
        can still grow, and §6.5 diff merges can arrive after the close
        and invalidate the cache entry for that page)."""
        key = (page, kind)
        cached = self._digests.get(key)
        if cached is None:
            bms = self.write_bitmaps if kind == "write" else self.read_bitmaps
            cached = coarse_digest(bms.get(page), self.page_size_words)
            if self.closed:
                self._digests[key] = cached
        return cached

    def digest_wire_size(self, sizer: WireSizer) -> int:
        """Bytes the coarse digests add to this record when the two-level
        filter piggy-backs them on the notice lists (one digest per write
        notice and, with detection, per read notice).  Pricing finalizes
        no digest: only the filter's first :meth:`digest` call does."""
        size = 0
        for pages, bms in ((self.write_pages, self.write_bitmaps),
                           (self.read_pages, self.read_bitmaps)):
            for page in pages:
                size += sizer.digest(digest_has_bloom(bms.get(page)))
        return size

    def __repr__(self) -> str:
        return (f"Interval(P{self.pid}:{self.index}, epoch={self.epoch}, "
                f"w={sorted(self.write_pages)}, r={sorted(self.read_pages)})")
