"""Coherence protocols: single-writer LRC and home-based multi-writer LRC.

The paper's prototype sits on CVM's *single-writer* protocol (§6.2): each
page has one writable copy at a time, whose location the page's manager
tracks; readers fetch whole pages from the owner; write notices invalidate
stale copies lazily, at acquires.  §6.5 sketches the move to the
multi-writer protocol, where concurrent writers twin pages and exchange
word-level *diffs* — and where diffs can replace store instrumentation.  We
implement the multi-writer variant in its home-based form (every page has a
home that diffs are flushed to at release), which preserves everything the
detector relies on while keeping page-fetch logic simple.

Both protocols re-protect written pages at interval boundaries so that the
first write in each interval soft-faults: that is how CVM gets per-interval
write notices without any instrumentation, and why the uninstrumented
baseline already carries them.
"""

from __future__ import annotations

from typing import Iterable

from repro.dsm.diff import apply_diff, create_diff, diff_to_bitmap
from repro.dsm.interval import Interval
from repro.dsm.node import Node
from repro.dsm.page import PageCopy, PageState
from repro.errors import DsmError
from repro.sim.costmodel import CostCategory


class Protocol:
    """Shared fault/notice machinery; subclasses fill in ownership rules.

    Built from the :class:`repro.dsm.cvm.CVM` facade ``system``, it keeps
    the siblings it uses — the configuration, the directory, every node
    (for page fetches), the wire sizer and the network — and not the
    facade.
    """

    name = "base"

    def __init__(self, system) -> None:
        self.config = system.config
        self.directory = system.directory
        self.nodes = system.nodes
        self.sizer = system.sizer
        self.net = system.net
        self.faults_read = 0
        self.faults_write = 0
        self.soft_faults = 0
        self.invalidations = 0
        self.ownership_transfers = 0
        self.diffs_created = 0
        self.diff_words_moved = 0

    def stats(self) -> dict:
        """Protocol-level counters for diagnostics (RunResult/CLI)."""
        return {
            "read_faults": self.faults_read,
            "write_faults": self.faults_write,
            "soft_faults": self.soft_faults,
            "invalidations": self.invalidations,
            "ownership_transfers": self.ownership_transfers,
            "diffs_created": self.diffs_created,
            "diff_words_moved": self.diff_words_moved,
        }

    # ------------------------------------------------------------------ #
    # Fault entry points (called by the access layer before any access).
    # ------------------------------------------------------------------ #
    def ensure_readable(self, node: Node, page_id: int) -> PageCopy:
        copy = node.pages.get(page_id)
        if copy is None:
            copy = node.page_copy(page_id)
        elif copy.state is not PageState.INVALID and copy.data is not None:
            return copy  # valid (a warm Env access tests this itself)
        self.faults_read += 1
        self._fetch_page(node, copy)
        copy.state = PageState.READ_ONLY
        return copy

    def ensure_writable(self, node: Node, page_id: int, offset: int) -> PageCopy:
        """Make the page locally writable, recording the page in the current
        interval's write set (the write notice) on the faulting transition."""
        copy = node.pages.get(page_id)
        if copy is None:
            copy = node.page_copy(page_id)
        elif copy.state is PageState.WRITABLE:
            return copy
        fetched = False
        if not copy.valid:
            self.faults_write += 1
            self._fetch_page(node, copy)
            fetched = True
        else:
            self.soft_faults += 1
            node.clock.advance(self.config.cost_model.soft_fault,
                               CostCategory.BASE)
        self._grant_write(node, copy, fetched)
        copy.state = PageState.WRITABLE
        node.current.record_write(page_id, offset, bitmap=False)
        return copy

    # ------------------------------------------------------------------ #
    # Interval boundaries.
    # ------------------------------------------------------------------ #
    def on_interval_closed(self, node: Node, closed: Interval) -> None:
        """Downgrade write permissions so the next interval's first write
        faults again (per-interval write notices); subclasses add diffing."""
        for page_id in list(closed.write_pages):
            copy = node.pages.get(page_id)
            if copy is not None and copy.state is PageState.WRITABLE:
                copy.state = PageState.READ_ONLY

    def apply_write_notice(self, node: Node, pages: Iterable[int]) -> None:
        """Invalidate ``node``'s local copies of ``pages``, written by
        remote intervals it has newly seen (the acquire-time half of lazy
        release consistency).  A page it holds no valid copy of, or keeps
        despite the notice, is left alone, so a page named twice is
        invalidated once."""
        node_pages = node.pages
        for page_id in pages:
            # The node's own copy first: most notices name a page it holds
            # no valid copy of, and only a valid one is worth asking the
            # directory about.
            copy = node_pages.get(page_id)
            if (copy is None or copy.state is PageState.INVALID
                    or copy.data is None):
                continue
            if self._keeps_copy_despite_notice(node, page_id):
                continue
            self.invalidations += 1
            copy.state = PageState.INVALID
            copy.data = None
            copy.drop_twin()

    # ------------------------------------------------------------------ #
    # Subclass hooks.
    # ------------------------------------------------------------------ #
    def _fetch_page(self, node: Node, copy: PageCopy) -> None:
        raise NotImplementedError

    def _grant_write(self, node: Node, copy: PageCopy,
                     fetched: bool) -> None:
        """``fetched`` tells the protocol whether the copy was just
        brought in by :meth:`_fetch_page` (and is therefore current)."""
        raise NotImplementedError

    def _keeps_copy_despite_notice(self, node: Node, page_id: int) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared helpers.
    # ------------------------------------------------------------------ #
    def _source_copy(self, source_pid: int, page_id: int) -> PageCopy:
        """The canonical copy at ``source_pid``, materialized (zero-filled)
        on first reference — fresh shared pages read as zero."""
        source = self.nodes[source_pid]
        copy = source.page_copy(page_id)
        if copy.data is None:
            copy.materialize()
        if copy.state is PageState.INVALID:
            copy.state = PageState.READ_ONLY
        return copy

    def _charge_page_fetch(self, node: Node, source_pid: int,
                           page_id: int) -> None:
        """Message accounting for a remote page fetch: request to the
        manager, forward to the source if different, full-page reply."""
        cm = self.config.cost_model
        node.clock.advance(cm.page_fault, CostCategory.BASE)
        manager = self.directory.manager_of(page_id)
        sizer = self.sizer
        if source_pid == node.pid:
            return  # local source: no messages
        net = self.net
        net.send("page_request", node.pid, manager, None,
                 sizer.ints(4), node.clock)
        if manager != source_pid:
            net.send("page_forward", manager, source_pid, None,
                     sizer.ints(4), node.clock)
        net.send("page_reply", source_pid, node.pid, None,
                 sizer.ints(2) + sizer.page_data(), node.clock)


class SingleWriterProtocol(Protocol):
    """The paper's prototype protocol: one writable copy per page."""

    name = "sw"

    def _fetch_page(self, node: Node, copy: PageCopy) -> None:
        owner = self.directory.owner_of(copy.page_id)
        source = self._source_copy(owner, copy.page_id)
        self._charge_page_fetch(node, owner, copy.page_id)
        copy.materialize(source.data)

    def _grant_write(self, node: Node, copy: PageCopy,
                     fetched: bool) -> None:
        """Take ownership of the page.

        The ownership grant carries the current page contents: even when
        the faulting processor holds a *valid* copy, LRC allows that copy
        to be stale (no write notice has reached it), and writing onto
        stale data would lose the previous owner's updates — the classic
        single-writer false-sharing ping-pong must merge, not clobber.
        The previous owner's copy demotes to a (possibly staling)
        read-only copy, which LRC permits until a write notice reaches it.
        """
        directory = self.directory
        owner = directory.owner_of(copy.page_id)
        if owner != node.pid:
            prev = self._source_copy(owner, copy.page_id)
            if not fetched:
                self._charge_page_fetch(node, owner, copy.page_id)
                copy.materialize(prev.data)
            if prev.state is PageState.WRITABLE:
                prev.state = PageState.READ_ONLY
            directory.set_owner(copy.page_id, node.pid)
            self.ownership_transfers += 1

    def _keeps_copy_despite_notice(self, node: Node, page_id: int) -> bool:
        # The current owner holds the newest data; invalidating it would
        # lose updates.  Everyone else drops their copy.
        return self.directory.owner_of(page_id) == node.pid


class MultiWriterProtocol(Protocol):
    """Home-based multi-writer LRC with twins and diffs (§6.5 target).

    Writers twin a page at the first write of each interval; at the close
    of the interval the page is diffed against its twin and the diff is
    flushed to the page's *home* (its manager), whose copy is therefore
    always current.  Readers fetch pages from the home.  When
    ``diff_write_detection`` is configured, the diff also becomes the
    interval's write bitmap — the instrumentation-free §6.5 mode, blind to
    same-value overwrites.
    """

    name = "mw"

    def _fetch_page(self, node: Node, copy: PageCopy) -> None:
        home = self.directory.manager_of(copy.page_id)
        source = self._source_copy(home, copy.page_id)
        self._charge_page_fetch(node, home, copy.page_id)
        copy.materialize(source.data)

    def _grant_write(self, node: Node, copy: PageCopy,
                     fetched: bool) -> None:
        cm = self.config.cost_model
        if copy.twin is None:
            copy.make_twin()
            node.twinned_pages.append(copy.page_id)
            node.clock.advance(
                cm.twin_per_word * self.config.page_size_words,
                CostCategory.BASE)

    def _keeps_copy_despite_notice(self, node: Node, page_id: int) -> bool:
        # The home copy is canonical (diffs are applied to it at release).
        return self.directory.manager_of(page_id) == node.pid

    def on_interval_closed(self, node: Node, closed: Interval) -> None:
        """Diff every twinned page and flush to its home."""
        config = self.config
        cm = config.cost_model
        page_words = config.page_size_words
        for page_id in node.twinned_pages:
            copy = node.pages.get(page_id)
            if copy is None or copy.twin is None or copy.data is None:
                continue
            node.clock.advance(cm.diff_per_word * page_words,
                               CostCategory.BASE)
            diff = create_diff(copy.twin, copy.data)
            copy.drop_twin()
            if diff:
                self.diffs_created += 1
                self.diff_words_moved += len(diff)
            if diff and config.diff_write_detection:
                closed.merge_write_bitmap(
                    page_id, diff_to_bitmap(diff, page_words))
            home = self.directory.manager_of(page_id)
            if home != node.pid and diff:
                self.net.send(
                    "diff_flush", node.pid, home, None,
                    self.sizer.diff(len(diff)), node.clock)
                home_copy = self._source_copy(home, page_id)
                apply_diff(home_copy.data, diff)
                node.clock.advance(cm.diff_per_word * len(diff),
                                   CostCategory.BASE)
        node.twinned_pages.clear()
        super().on_interval_closed(node, closed)


def make_protocol(name: str, system) -> Protocol:
    if name == "sw":
        return SingleWriterProtocol(system)
    if name == "mw":
        return MultiWriterProtocol(system)
    raise DsmError(f"unknown protocol {name!r}")
