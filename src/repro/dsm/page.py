"""Per-node page copies and the global page directory.

Each simulated process keeps its own copy of each shared page with a local
protection state; pages become ``INVALID`` when a write notice for them
arrives at an acquire, exactly like mprotect-based DSM invalidation.  The
directory assigns each page a static *manager* (round-robin over processes,
CVM's scheme) which tracks the page's current *owner* — the last writer in
the single-writer protocol, the diff archive in the multi-writer protocol.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional


class PageState(enum.Enum):
    #: No valid local copy; any access faults.
    INVALID = "invalid"
    #: Valid local copy; writes fault.
    READ_ONLY = "read_only"
    #: Valid local copy with write permission.
    WRITABLE = "writable"


class PageCopy:
    """One node's view of one page."""

    __slots__ = ("page_id", "size_words", "state", "data", "twin")

    def __init__(self, page_id: int, size_words: int):
        self.page_id = page_id
        self.size_words = size_words
        self.state = PageState.INVALID
        self.data: Optional[List[int]] = None
        #: Multi-writer protocol: pristine copy made at the first write
        #: after the page became writable; diffed against ``data`` at
        #: release time.
        self.twin: Optional[List[int]] = None

    def materialize(self, contents: Optional[List[int]] = None) -> None:
        """Install page contents locally (from a page-fetch reply)."""
        if contents is None:
            self.data = [0] * self.size_words
        else:
            if len(contents) != self.size_words:
                raise ValueError("page contents of wrong length")
            self.data = list(contents)

    def make_twin(self) -> None:
        if self.data is None:
            raise ValueError("cannot twin an absent page")
        self.twin = list(self.data)

    def drop_twin(self) -> None:
        self.twin = None

    @property
    def valid(self) -> bool:
        return self.state is not PageState.INVALID and self.data is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageCopy(page={self.page_id}, state={self.state.value})"


class PageDirectory:
    """Global page metadata: static managers, current owners.

    In real CVM this state is distributed (each manager process holds the
    entries it manages) and queried by messages; here the data structure is
    global but every query/update is paired with explicit message
    accounting by the protocol, preserving both the communication pattern
    and its cost.
    """

    def __init__(self, num_pages: int, nprocs: int):
        self.num_pages = num_pages
        self.nprocs = nprocs
        #: Current owner (last writer); pages start owned by their manager.
        self._owner: Dict[int, int] = {}

    def manager_of(self, page_id: int) -> int:
        """Static manager assignment: round-robin, CVM's default."""
        self._check(page_id)
        return page_id % self.nprocs

    def owner_of(self, page_id: int) -> int:
        self._check(page_id)  # manager_of's default, inlined: one check
        return self._owner.get(page_id, page_id % self.nprocs)

    def set_owner(self, page_id: int, pid: int) -> None:
        self._check(page_id)
        if not 0 <= pid < self.nprocs:
            raise ValueError(f"bad pid {pid}")
        self._owner[page_id] = pid

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < self.num_pages:
            raise ValueError(f"page {page_id} out of range")
