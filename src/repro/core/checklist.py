"""Page-overlap winnowing and the check list (paper §4, step 3).

For each concurrent interval pair, the read and write notice lists are
intersected.  A data race can only exist on a page *written* in one of the
intervals and *accessed* in the other; such pairs, together with the
overlapping pages, go on the *check list* that the barrier release message
carries to all processes (step 4) so that word bitmaps can be returned for
exactly those pages and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.bitmap import Digest, digests_disjoint
from repro.core.concurrency import (Block, PairSearchStats,
                                    concurrency_windows, group_by_pid,
                                    pair_blocks)
from repro.core.report import RaceKind
from repro.dsm.interval import Interval


@dataclass
class OverlapPage:
    """One page shared unsynchronized by a concurrent interval pair, with
    the access kinds that overlapped at page granularity."""

    page: int
    #: True if both intervals wrote the page.
    write_write: bool = False
    #: True if interval ``a`` read and ``b`` wrote.
    a_read_b_write: bool = False
    #: True if interval ``a`` wrote and ``b`` read.
    a_write_b_read: bool = False


#: The access-kind combinations under which a page of a concurrent pair
#: ``(a, b)`` can carry a race, in the order they are checked and reported:
#: the :class:`OverlapPage` flag, ``a``'s access, ``b``'s access, and the
#: kind of race a common word is.  Reads never race with reads.
ACCESS_COMBINATIONS = (
    ("write_write", "write", "write", RaceKind.WRITE_WRITE),
    ("a_read_b_write", "read", "write", RaceKind.READ_WRITE),
    ("a_write_b_read", "write", "read", RaceKind.READ_WRITE),
)


@dataclass
class CheckEntry:
    """Check-list entry: a concurrent interval pair plus its overlap pages."""

    a: Interval
    b: Interval
    pages: List[OverlapPage]


#: One page of an interval ``a``'s check-list entries, as masks over a
#: sequence of partner intervals: ``(page, write_write, a_read_b_write,
#: a_write_b_read)``, bit ``x`` of a mask naming partner ``x`` — the
#: :class:`OverlapPage` flags of every entry of ``a`` at once, in
#: :data:`ACCESS_COMBINATIONS` order.
Row = Tuple[int, int, int, int]


def entry_rows(pages: List[OverlapPage]) -> List[Row]:
    """One entry's pages as rows over its one partner (bit 0)."""
    return [(ov.page, int(ov.write_write), int(ov.a_read_b_write),
             int(ov.a_write_b_read)) for ov in pages]


def page_overlaps(a: Interval, b: Interval) -> List[OverlapPage]:
    """Page-granularity overlap between two intervals' notice lists.

    Returns one entry per page that could carry a race; pages only read by
    both sides are skipped (reads never race with reads).
    """
    out: List[OverlapPage] = []
    candidates = (a.write_pages & (b.write_pages | b.read_pages)) | \
                 (a.read_pages & b.write_pages)
    for page in sorted(candidates):
        out.append(OverlapPage(
            page=page,
            write_write=page in a.write_pages and page in b.write_pages,
            a_read_b_write=page in a.read_pages and page in b.write_pages,
            a_write_b_read=page in a.write_pages and page in b.read_pages,
        ))
    return out


def overlap_work(a: Interval, b: Interval) -> int:
    """Number of elementary probes the overlap check performs — used for
    virtual-time charging.  Notice lists are kept sorted, so the check is
    a linear merge over both lists.  (The paper's prototype did an O(n^2)
    nested scan and noted lists were "usually very small", §6.2; the merge
    is the obvious constant-factor fix and keeps the master's serialized
    work proportional, which matters at our scaled-down epoch lengths.)"""
    return (len(a.write_pages) + len(a.read_pages)
            + len(b.write_pages) + len(b.read_pages))


def build_check_list(
        pairs: Iterable[Tuple[Interval, Interval]]) -> List[CheckEntry]:
    """Winnow concurrent pairs to those with page overlap (the check list)."""
    entries: List[CheckEntry] = []
    for a, b in pairs:
        pages = page_overlaps(a, b)
        if pages:
            entries.append(CheckEntry(a, b, pages))
    return entries


def entry_key(entry: CheckEntry) -> Tuple[int, int, int, int]:
    """Canonical check-list order: process-pair rank, then interval
    indices — the naive enumeration order."""
    return (entry.a.pid, entry.b.pid, entry.a.index, entry.b.index)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class EpochJoin:
    """Steps 2-3 (and the coarse filter) of one set of pair blocks: the
    check list as counts, plus what step 5 has to walk — rows over
    interval ordinals (:meth:`PageIndex.join`) or, for the reference
    steps, entries."""

    #: Concurrency masks the join ran over (see :meth:`PageIndex.scan`),
    #: the probes that found them and the pairs they hold.
    conc: List[int] = field(default_factory=list)
    probes: int = 0
    concurrent_pairs: int = 0
    #: Check-list length.
    check_entries: int = 0
    #: (pid, index) of the intervals in >= 1 check-list entry.
    used: Set[Tuple[int, int]] = field(default_factory=set)
    #: Digest pre-checks of the access-kind combinations, and how many
    #: collided (both 0 with the filter off).
    granule_checks: int = 0
    granule_hits: int = 0
    #: ``(o, rows)`` per interval ordinal ``o`` with >= 1 entry, in
    #: ordinal order, its rows sorted by page, their masks over
    #: :attr:`PageIndex.recs`.  Filter on: narrowed to the granule hits,
    #: rows with none dropped.  None: the reference steps, which walk
    #: ``entries``.
    rows: Optional[List[Tuple[int, List[Row]]]] = None
    #: Reference steps only, in canonical order: the whole check list.
    entries: List[CheckEntry] = field(default_factory=list)
    #: Reference steps only (:meth:`RaceDetector._winnow`), where
    #: ``entries`` is the whole list with the filter on: id(entry) -> the
    #: pages that survived it.
    plan: Optional[Dict[int, List[OverlapPage]]] = None
    #: Bitmaps the surviving combinations name (:func:`bitmaps_needed`).
    needed: Set[Tuple[int, int, int, str]] = field(default_factory=set)

    def pages_of(self, entry: CheckEntry) -> List[OverlapPage]:
        """The pages of one of ``entries`` that step 5 has to compare."""
        return entry.pages if self.plan is None else self.plan[id(entry)]


class PageIndex:
    """One epoch's intervals as bit positions, and its notices inverted.

    Every interval gets an ordinal in ``(pid, index)`` order, so a process
    is a contiguous bit range and a set of intervals is one Python int.
    The reference pipeline enumerates every concurrent pair and
    intersects its notice lists, although the vast majority of pairs
    share no page at all; here the concurrent partners of an interval are
    a mask (:meth:`scan`), the accessors of a page are a mask, and the
    check list is their intersection (:meth:`join`) — counted by
    popcount, materialized only for the pairs step 5 must look at.
    """

    def __init__(self, intervals: List[Interval]):
        self.by_pid = group_by_pid(intervals)
        #: ordinal -> interval; ``base[pid]`` is the first ordinal of pid.
        self.recs: List[Interval] = []
        self.base: Dict[int, int] = {}
        for pid in sorted(self.by_pid):
            self.base[pid] = len(self.recs)
            self.recs.extend(self.by_pid[pid])
        #: page -> mask of the intervals that wrote / read it.
        self.writers: Dict[int, int] = {}
        self.readers: Dict[int, int] = {}
        #: Prefix sums of notice-list sizes by ordinal, for O(1) range sums.
        self._notices = [0]
        for o, rec in enumerate(self.recs):
            for page in rec.write_pages:
                self.writers[page] = self.writers.get(page, 0) | 1 << o
            for page in rec.read_pages:
                self.readers[page] = self.readers.get(page, 0) | 1 << o
            self._notices.append(self._notices[-1] + len(rec.write_pages)
                                 + len(rec.read_pages))
        #: (page, kind) -> {digest: mask of the accessors carrying it}.
        self._classes: Dict[Tuple[int, str], Dict[Digest, int]] = {}
        #: (page, kind, digest d) -> (settled, colliding): the (page, kind)
        #: accessors whose digest has been tested against d, and those of
        #: them it is not provably disjoint from.
        self._verdicts: Dict[Tuple[int, str, Digest], Tuple[int, int]] = {}

    def scan(self, blocks: Iterable[Block],
             stats: PairSearchStats) -> Tuple[List[int], int]:
        """Pair search over ``blocks``: returns ``(conc, probe_work)``.

        ``conc[o]`` has the bit of every higher-pid interval concurrent
        with ``recs[o]`` — each window of :func:`concurrency_windows` is
        one run of bits.  ``probe_work`` is the sum of :func:`overlap_work`
        over the concurrent pairs (what the detector charges for the
        winnowing step), as window arithmetic: ``size(a) * width`` plus a
        range sum of partner sizes, per interval of a window run.  The
        masks of the runs that span several intervals of p (unordered
        blocks, all of p) are OR'ed together first and into each of those
        intervals once.
        """
        conc = [0] * len(self.recs)
        pre, base = self._notices, self.base
        probe_work = 0
        runs: Dict[Tuple[int, int], int] = {}
        for p, i, j, q, lo, hi in concurrency_windows(self.by_pid, blocks,
                                                      stats):
            o, end = base[p] + i, base[p] + j
            first = base[q] + lo
            width = hi - lo
            probe_work += (width * (pre[end] - pre[o])
                           + (j - i) * (pre[first + width] - pre[first]))
            mask = ((1 << width) - 1) << first
            if j - i == 1:
                conc[o] |= mask
            else:
                runs[o, end] = runs.get((o, end), 0) | mask
        for (o, end), mask in runs.items():
            for x in range(o, end):
                conc[x] |= mask
        return conc, probe_work

    def join(self, conc: List[int], coarse_filter: bool) -> EpochJoin:
        """The check list of the concurrent pairs in ``conc``, as rows.

        :meth:`entries` of the rows is :func:`build_check_list` over
        those pairs — same entries, order, sorted pages and access-kind
        flags — followed, with ``coarse_filter``, by the detector's
        per-entry digest pre-check; the equivalence tests assert this.
        """
        out = EpochJoin(conc=conc, rows=[])
        used = 0
        for o, mask in enumerate(conc):
            if not mask:
                continue
            a = self.recs[o]
            #: (page, write/write, a-read/b-write, a-write/b-read) masks.
            rows = []
            for page in a.write_pages:
                w = mask & self.writers[page]
                r = mask & self.readers.get(page, 0)
                if w or r:
                    rows.append((page, w, w if page in a.read_pages else 0, r))
            for page in a.read_pages - a.write_pages:
                w = mask & self.writers.get(page, 0)
                if w:
                    rows.append((page, 0, w, 0))
            partners, combos = _fold(rows)
            if not partners:
                continue
            out.check_entries += partners.bit_count()
            used |= partners | 1 << o
            if coarse_filter:
                out.granule_checks += combos
                hits = []
                for page, ww, arbw, awbr in rows:
                    if ww:
                        ww = self._hits(a, page, "write", "write", ww)
                    if arbw:
                        arbw = self._hits(a, page, "read", "write", arbw)
                    if awbr:
                        awbr = self._hits(a, page, "write", "read", awbr)
                    if ww or arbw or awbr:
                        hits.append((page, ww, arbw, awbr))
                rows = hits
                combos = _fold(rows)[1]
                out.granule_hits += combos
                if not rows:
                    continue
            rows.sort()
            out.rows.append((o, rows))
        out.used = {(self.recs[o].pid, self.recs[o].index)
                    for o in _bits(used)}
        return out

    def entries(self, rows: List[Tuple[int, List[Row]]]) -> List[CheckEntry]:
        """The check entries ``rows`` (of :meth:`join`) stand for, in
        canonical order: one per (interval, partner bit)."""
        out: List[CheckEntry] = []
        for o, a_rows in rows:
            a = self.recs[o]
            for b in _bits(_fold(a_rows)[0]):
                out.append(CheckEntry(a, self.recs[b], [
                    OverlapPage(page, bool(ww >> b & 1), bool(arbw >> b & 1),
                                bool(awbr >> b & 1))
                    for page, ww, arbw, awbr in a_rows
                    if (ww | arbw | awbr) >> b & 1]))
        out.sort(key=entry_key)
        return out

    def needed(self, rows: List[Tuple[int, List[Row]]]
               ) -> Set[Tuple[int, int, int, str]]:
        """:func:`bitmaps_needed` of :meth:`entries` of ``rows``, from the
        masks: each (page, kind)'s accessors are OR-ed over the rows, then
        expanded once."""
        masks: Dict[Tuple[int, str], int] = {}
        for o, a_rows in rows:
            me = 1 << o
            for page, ww, arbw, awbr in a_rows:
                write = ww | arbw | (me if ww or awbr else 0)
                read = awbr | (me if arbw else 0)
                if write:
                    masks[page, "write"] = masks.get((page, "write"), 0) | write
                if read:
                    masks[page, "read"] = masks.get((page, "read"), 0) | read
        recs = self.recs
        return {(recs[o].pid, recs[o].index, page, kind)
                for (page, kind), mask in masks.items() for o in _bits(mask)}

    def _hits(self, a: Interval, page: int, kind_a: str, kind_b: str,
              candidates: int) -> int:
        """The ``candidates`` (non-zero) whose ``(page, kind_b)`` digest
        is not provably disjoint from ``a``'s ``(page, kind_a)`` digest.

        The accessors of one (page, kind) are grouped by digest value, and
        a pair of values is tested once per epoch, when the first
        candidate pair carrying it turns up: every test settles a whole
        class of candidates, so the tests number at most min(candidate
        pairs, pairs of values) — never more than one per pair.
        """
        mine = a.digest(page, kind_a)
        classes = self._classes.get((page, kind_b))
        if classes is None:
            classes = self._classes[page, kind_b] = {}
            accessors = self.writers if kind_b == "write" else self.readers
            for o in _bits(accessors[page]):
                theirs = self.recs[o].digest(page, kind_b)
                classes[theirs] = classes.get(theirs, 0) | 1 << o
        settled, colliding = self._verdicts.get((page, kind_b, mine), (0, 0))
        pending = candidates & ~settled
        if pending:
            while pending:
                theirs = self.recs[(pending & -pending).bit_length()
                                   - 1].digest(page, kind_b)
                members = classes[theirs]
                if not digests_disjoint(mine, theirs):
                    colliding |= members
                settled |= members
                pending &= ~members
            self._verdicts[page, kind_b, mine] = settled, colliding
        return candidates & colliding


def _fold(rows: List[Tuple[int, int, int, int]]) -> Tuple[int, int]:
    """``(partners, combinations)`` of one interval's candidate rows: the
    union of the three masks over all pages, and their total popcount."""
    partners = combos = 0
    for _page, ww, arbw, awbr in rows:
        partners |= ww | arbw | awbr
        combos += ww.bit_count() + arbw.bit_count() + awbr.bit_count()
    return partners, combos


def build_check_list_fast(intervals: List[Interval]) -> List[CheckEntry]:
    """The whole check list through :class:`PageIndex`, no filter: the
    entries of :func:`~repro.core.concurrency.find_concurrent_pairs`
    followed by :func:`build_check_list`, in the same order."""
    index = PageIndex(intervals)
    conc, _probe_work = index.scan(pair_blocks(index.by_pid),
                                   PairSearchStats())
    return index.entries(index.join(conc, coarse_filter=False).rows)


def bitmaps_needed(entries: List[CheckEntry]) -> Set[Tuple[int, int, int, str]]:
    """The set of bitmaps the master must retrieve: (pid, interval index,
    page, kind) where kind is ``"read"`` or ``"write"``.

    This is what the extra barrier round requests (§4 step 4); its size
    relative to all bitmaps created is Table 3's "Bitmaps Used" column.
    """
    needed: Set[Tuple[int, int, int, str]] = set()
    for entry in entries:
        a, b = entry.a, entry.b
        for ov in entry.pages:
            for flag, a_access, b_access, _kind in ACCESS_COMBINATIONS:
                if getattr(ov, flag):
                    needed.add((a.pid, a.index, ov.page, a_access))
                    needed.add((b.pid, b.index, ov.page, b_access))
    return needed
