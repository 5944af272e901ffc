"""The shared data segment: allocation and symbol resolution.

CVM allocates all shared memory dynamically from a single shared segment —
that is what lets the instrumentation statically discard every access made
through the static-data base register (§5.1).  The allocator here is a
simple first-fit free-list over word addresses.  Named allocations populate
a symbol table; the race reporter uses it to turn a racy shared-segment
address into ``variable + offset``, the "reference identification" of §6.1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import AllocationError, SegmentExhausted, SegmentationFault


@dataclass(frozen=True)
class Allocation:
    """One allocated block."""

    name: str
    addr: int
    nwords: int
    #: One past the block's last word (stored: the access layer's bounds
    #: check reads it on every range access).
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "end", self.addr + self.nwords)


class SharedSegment:
    """Word-addressed shared segment with a first-fit allocator."""

    def __init__(self, segment_words: int, page_size_words: int):
        if segment_words <= 0 or segment_words % page_size_words != 0:
            raise ValueError("segment must be a positive multiple of pages")
        self.segment_words = segment_words
        self.page_size_words = page_size_words
        #: Sorted list of free (addr, nwords) holes.
        self._free: List[Tuple[int, int]] = [(0, segment_words)]
        #: Allocations sorted by address (for bisect lookups).
        self._allocs: List[Allocation] = []
        self._alloc_starts: List[int] = []
        self._by_name: Dict[str, Allocation] = {}
        self._anon_counter = 0
        #: One past the highest word ever allocated (freeing keeps it).
        self._high_water = 0
        #: Bumped by every :meth:`free`; a cached :class:`Allocation` is
        #: good for as long as the generation it was looked up under.
        self.generation = 0

    # ------------------------------------------------------------------ #
    # Allocation.
    # ------------------------------------------------------------------ #
    def malloc(self, nwords: int, name: Optional[str] = None,
               page_aligned: bool = False) -> int:
        """Allocate ``nwords`` words; returns the word address.

        Page alignment is available for data structures that the
        application wants to keep from false-sharing with neighbours (the
        apps use it for per-processor slabs, as real CVM programs do).
        """
        if nwords <= 0:
            raise AllocationError(f"allocation size must be positive, got {nwords}")
        if name is not None and name in self._by_name:
            raise AllocationError(f"duplicate allocation name {name!r}")
        align = self.page_size_words if page_aligned else 1
        for i, (addr, size) in enumerate(self._free):
            aligned = -(-addr // align) * align
            pad = aligned - addr
            if size >= pad + nwords:
                # Carve [aligned, aligned+nwords) out of the hole.
                del self._free[i]
                if pad:
                    self._free.insert(i, (addr, pad))
                    i += 1
                rest = size - pad - nwords
                if rest:
                    self._free.insert(i, (aligned + nwords, rest))
                return self._install(aligned, nwords, name)
        raise SegmentExhausted(
            f"shared segment exhausted: cannot allocate {nwords} words")

    def _install(self, addr: int, nwords: int, name: Optional[str]) -> int:
        if name is None:
            name = f"__anon{self._anon_counter}"
            self._anon_counter += 1
        alloc = Allocation(name, addr, nwords)
        pos = bisect.bisect_left(self._alloc_starts, addr)
        self._allocs.insert(pos, alloc)
        self._alloc_starts.insert(pos, addr)
        self._by_name[name] = alloc
        self._high_water = max(self._high_water, alloc.end)
        return addr

    def free(self, addr: int) -> None:
        """Release a block (coalescing with adjacent holes)."""
        pos = bisect.bisect_left(self._alloc_starts, addr)
        if pos >= len(self._allocs) or self._allocs[pos].addr != addr:
            raise AllocationError(f"free of unallocated address {addr}")
        alloc = self._allocs.pop(pos)
        self._alloc_starts.pop(pos)
        del self._by_name[alloc.name]
        bisect.insort(self._free, (alloc.addr, alloc.nwords))
        self._coalesce()
        self.generation += 1

    def _coalesce(self) -> None:
        merged: List[Tuple[int, int]] = []
        for addr, size in sorted(self._free):
            if merged and merged[-1][0] + merged[-1][1] == addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((addr, size))
        self._free = merged

    # ------------------------------------------------------------------ #
    # Lookup.
    # ------------------------------------------------------------------ #
    def block_of(self, addr: int, pid: int = -1) -> Allocation:
        """The allocation containing ``addr``; raises
        :class:`SegmentationFault` on behalf of process ``pid`` if none."""
        pos = bisect.bisect_right(self._alloc_starts, addr) - 1
        if pos >= 0:
            alloc = self._allocs[pos]
            if alloc.addr <= addr < alloc.end:
                return alloc
        raise SegmentationFault(pid, addr)

    def check_range(self, addr: int, nwords: int, pid: int = -1) -> Allocation:
        """Validate that [addr, addr+nwords) lies inside one allocation
        (raising on behalf of process ``pid``) and return it."""
        alloc = self.block_of(addr, pid)
        if addr + nwords > alloc.end:
            raise SegmentationFault(
                pid, addr + nwords - 1,
                f"range runs off the end of {alloc.name!r}")
        return alloc

    def symbol_for(self, addr: int) -> str:
        """Human-readable ``name[+offset]`` for an address, or the raw
        address when it falls in no allocation (e.g. already freed)."""
        try:
            alloc = self.block_of(addr)
        except SegmentationFault:
            return f"0x{addr:x}"
        off = addr - alloc.addr
        return alloc.name if off == 0 else f"{alloc.name}+{off}"

    def lookup(self, name: str) -> Allocation:
        alloc = self._by_name.get(name)
        if alloc is None:
            raise AllocationError(f"no allocation named {name!r}")
        return alloc

    # ------------------------------------------------------------------ #
    # Metrics.
    # ------------------------------------------------------------------ #
    @property
    def allocated_words(self) -> int:
        return sum(a.nwords for a in self._allocs)

    @property
    def allocated_kbytes(self) -> float:
        """Shared-segment footprint in kbytes (8-byte words) — Table 1's
        "Memory Size" column."""
        return self.allocated_words * 8 / 1024.0

    @property
    def high_water_kbytes(self) -> float:
        """Highest address ever handed out, in kbytes."""
        return self._high_water * 8 / 1024.0

    def page_of(self, addr: int) -> int:
        return addr // self.page_size_words

    def page_offset(self, addr: int) -> int:
        return addr % self.page_size_words
