"""The per-process application environment.

:class:`Env` is the handle the application code receives: it exposes the
DSM API (``malloc``/``load``/``store``/``lock``/``unlock``/``barrier``)
and *is* the analogue of the paper's instrumentation analysis routine —
every shared access that flows through it is classified, counted,
bitmap-tracked and charged to the virtual clock under the proper overhead
category.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.baseline.trace import TraceEvent
from repro.dsm.memory import Allocation
from repro.dsm.page import PageState
from repro.errors import AllocationError, SegmentationFault
from repro.sim.costmodel import CostCategory

if TYPE_CHECKING:  # pragma: no cover - the facade imports this module
    from repro.dsm.cvm import CVM

#: Yield to the scheduler after this many shared accesses, so that long
#: computation phases cannot starve other simulated processes.
YIELD_EVERY = 512

#: Ledger slots the access engine charges; page states its warm test names.
_BASE = CostCategory.BASE.slot
_PROC_CALL = CostCategory.PROC_CALL.slot
_ACCESS_CHECK = CostCategory.ACCESS_CHECK.slot
_INVALID, _WRITABLE = PageState.INVALID, PageState.WRITABLE


class Env:
    """Per-process application handle: the DSM API plus the analysis
    routine of the paper's instrumentation (access classification, bitmap
    maintenance, cost accounting).  A *warm* access — valid copy
    (``WRITABLE`` for a store), bitmap already in the open interval — is
    decided here and costs one further call, ``Bitmap.set``/``set_range``:
    ``ensure_*`` would return without a side effect, and a bitmap implies
    its notice (``Interval``).  Pages and interval are read through the
    node on every access: recovery replaces both."""

    def __init__(self, system: CVM, pid: int):
        self.system = system
        self.pid = pid
        self.config = config = system.config
        self.nprocs = config.nprocs
        self._node = system.nodes[pid]
        self._clock = self._node.clock
        self._cm = cm = config.cost_model
        self._psz = config.page_size_words
        self._accesses_since_yield = 0
        self._detect = config.detection
        #: §6.5 diff mode dispenses with store instrumentation entirely.
        self._record_writes = (config.detection
                               and not config.diff_write_detection)
        self._proc_call = (0.0 if config.inline_instrumentation
                           else cm.proc_call)
        # Tracing, pc-watching and crash injection are all fixed before
        # run() (the config is frozen; replay attribution installs its
        # watch on the system before starting the second run).
        self._trace = config.track_access_trace
        self._watching = system.pc_watch is not None
        self._crasher = system._crasher
        #: Accesses between two visits to the hook tail (_after_access):
        #: one when any hook is configured, else only when a yield is due.
        self._tail_every = (1 if self._trace or self._watching
                            or self._crasher is not None else YIELD_EVERY)
        self._segwords = config.segment_words
        self._segment = system.segment
        #: Bounds-check cache of the range engine: the allocation the last
        #: range starting on each page fell in, good while the segment's
        #: generation is the one they were looked up under.
        self._blocks: Dict[int, Allocation] = {}
        self._blocks_gen = system.segment.generation
        self._ensure_readable = system.protocol.ensure_readable
        self._ensure_writable = system.protocol.ensure_writable
        self._slots = self._clock.ledger.slots
        # Per-word (BASE, PROC_CALL, ACCESS_CHECK) cycles of a shared read,
        # a shared write and an instrumented-but-private access.  The
        # access engine adds them to the clock and the ledger slots
        # itself, so the ledger's negative-charge check runs here, once.
        plain = (cm.plain_access, 0.0, 0.0)
        shared = (cm.plain_access, self._proc_call, cm.access_check_shared)
        self._read_costs = shared if self._detect else plain
        self._write_costs = shared if self._record_writes else plain
        self._private_costs = ((cm.plain_access, self._proc_call,
                                cm.access_check_private)
                               if self._detect else plain)
        for cycles in (*shared, cm.access_check_private, cm.compute_unit):
            if cycles < 0:
                raise ValueError(f"negative charge: {cycles}")

    # ------------------------------------------------------------------ #
    # Allocation.
    # ------------------------------------------------------------------ #
    def malloc(self, nwords: int, name: Optional[str] = None,
               page_aligned: bool = False) -> int:
        """Allocate shared memory.  Named allocations are idempotent across
        processes (the SPMD idiom: every process asks for ``"grid"`` and
        gets the same address) — for the same size: scalar accesses are
        bounds-checked against the segment only, so a process handed a
        smaller block than it asked for would write into its neighbour."""
        seg = self.system.segment
        if name is not None:
            try:
                block = seg.lookup(name)
            except AllocationError:
                pass
            else:
                if block.nwords != nwords:
                    raise AllocationError(
                        f"P{self.pid}: malloc({nwords}, name={name!r}) does "
                        f"not match the existing {block.nwords}-word block "
                        f"{name!r}")
                return block.addr
        return seg.malloc(nwords, name=name, page_aligned=page_aligned)

    def symbol_for(self, addr: int) -> str:
        return self.system.segment.symbol_for(addr)

    # ------------------------------------------------------------------ #
    # Shared accesses.  One straight-line path per operation: bounds
    # check, protocol fault check, one clock advance with its ledger
    # slots, the interval's bitmap, then the hook tail when one is due.
    # The total is summed before it reaches the clock; every cost-model
    # constant is a dyadic rational far below 2**52, so float addition
    # over them is exact and ``now`` and each ledger slot come out
    # bit-identical to one advance per word and cost category — the
    # paper's analysis routine as tests/dsm/reference_env.py spells it
    # out, which tests/dsm/test_env_matches_reference.py holds these four
    # bodies to.
    # ------------------------------------------------------------------ #
    def load(self, addr: int, site: Optional[str] = None) -> Any:
        if not 0 <= addr < self._segwords:
            raise SegmentationFault(self.pid, addr)
        node = self._node
        page, off = divmod(addr, self._psz)
        copy = node.pages.get(page)
        if copy is None or copy.state is _INVALID or copy.data is None:
            copy = self._ensure_readable(node, page)
        base, pc, ac = self._read_costs
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        if self._detect:
            node.shared_instr_calls += 1
            current = node.current
            bm = current.read_bitmaps.get(page)
            if bm is None or current.closed:
                current.record_read(page, off)
            else:
                bm.set(off)
        n = self._accesses_since_yield = self._accesses_since_yield + 1
        if n >= self._tail_every:
            self._after_access(addr, 1, False, site)
        return copy.data[off]

    def store(self, addr: int, value: Any, site: Optional[str] = None) -> None:
        if not 0 <= addr < self._segwords:
            raise SegmentationFault(self.pid, addr)
        node = self._node
        page, off = divmod(addr, self._psz)
        copy = node.pages.get(page)
        if copy is None or copy.state is not _WRITABLE:
            copy = self._ensure_writable(node, page, off)
        copy.data[off] = value
        base, pc, ac = self._write_costs
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        if self._record_writes:
            node.shared_instr_calls += 1
            current = node.current
            bm = current.write_bitmaps.get(page)
            if bm is None or current.closed:
                current.record_write(page, off)
            else:
                bm.set(off)
        n = self._accesses_since_yield = self._accesses_since_yield + 1
        if n >= self._tail_every:
            self._after_access(addr, 1, True, site)

    def load_range(self, addr: int, count: int,
                   site: Optional[str] = None) -> List[Any]:
        if count <= 0:
            return []
        node = self._node
        psz = self._psz
        page, off = divmod(addr, psz)
        block = self._blocks.get(page)
        if (block is None or addr < block.addr or addr + count > block.end
                or self._blocks_gen != self._segment.generation):
            self._cache_block(page, addr, count)
        n = psz - off
        detect = self._detect
        if count <= n:  # common case: the whole range on one page
            copy = node.pages.get(page)
            if copy is None or copy.state is _INVALID or copy.data is None:
                copy = self._ensure_readable(node, page)
            out = copy.data[off:off + count]
            if detect:
                current = node.current
                bm = current.read_bitmaps.get(page)
                if bm is None or current.closed:
                    current.record_read(page, off, count)
                else:
                    bm.set_range(off, count)
        else:
            out = []
            remaining = count
            while True:
                take = min(n, remaining)
                out += self._ensure_readable(node, page).data[off:off + take]
                if detect:
                    node.current.record_read(page, off, take)
                remaining -= take
                if not remaining:
                    break
                page += 1
                off = 0
                n = psz
        if detect:
            node.shared_instr_calls += count
        base, pc, ac = self._read_costs
        base *= count
        pc *= count
        ac *= count
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        n = self._accesses_since_yield = self._accesses_since_yield + count
        if n >= self._tail_every:
            self._after_access(addr, count, False, site)
        return out

    def store_range(self, addr: int, values: Sequence[Any],
                    site: Optional[str] = None) -> None:
        count = len(values)
        if count == 0:
            return
        node = self._node
        psz = self._psz
        page, off = divmod(addr, psz)
        block = self._blocks.get(page)
        if (block is None or addr < block.addr or addr + count > block.end
                or self._blocks_gen != self._segment.generation):
            self._cache_block(page, addr, count)
        n = psz - off
        record = self._record_writes
        if count <= n:  # common case: no slicing of ``values`` at all
            copy = node.pages.get(page)
            if copy is None or copy.state is not _WRITABLE:
                copy = self._ensure_writable(node, page, off)
            copy.data[off:off + count] = values
            if record:
                current = node.current
                bm = current.write_bitmaps.get(page)
                if bm is None or current.closed:
                    current.record_write(page, off, count)
                else:
                    bm.set_range(off, count)
        else:
            taken = 0
            while True:
                take = min(n, count - taken)
                self._ensure_writable(node, page, off).data[
                    off:off + take] = values[taken:taken + take]
                if record:
                    node.current.record_write(page, off, take)
                taken += take
                if taken == count:
                    break
                page += 1
                off = 0
                n = psz
        if record:
            node.shared_instr_calls += count
        base, pc, ac = self._write_costs
        base *= count
        pc *= count
        ac *= count
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac
        n = self._accesses_since_yield = self._accesses_since_yield + count
        if n >= self._tail_every:
            self._after_access(addr, count, True, site)

    def _cache_block(self, page: int, addr: int, count: int) -> None:
        """Range bounds check on a miss of the block cache: look the
        allocation up (faulting as this process) and keep it for the next
        range that starts on ``page``."""
        segment = self._segment
        if self._blocks_gen != segment.generation:  # a free() since
            self._blocks.clear()
            self._blocks_gen = segment.generation
        self._blocks[page] = segment.check_range(addr, count, self.pid)

    def _after_access(self, addr: int, count: int, is_write: bool,
                      site: Optional[str]) -> None:
        """The hook tail of an access already counted into
        ``_accesses_since_yield``: trace, pc-watch, crash point, yield."""
        if self._trace or self._watching:
            system = self.system
            if self._trace:
                # One C call: no __new__ or VectorClock.__getitem__ frame.
                system.access_trace.append(tuple.__new__(TraceEvent, (
                    self.pid, self._node.vc.entries[self.pid],
                    addr, count, is_write)))
            if self._watching:
                for w in range(addr, addr + count):
                    hits = system.pc_watch.get(w)
                    if hits is not None:
                        hits.append((self.pid, self._node.vc[self.pid],
                                     site or "<unknown site>", is_write))
        if self._crasher is not None:
            self.system._maybe_crash(self.pid, "access")
        if self._accesses_since_yield >= YIELD_EVERY:
            self._accesses_since_yield = 0
            self.system.scheduler.yield_control(self.pid)

    # ------------------------------------------------------------------ #
    # Private work (instrumented-but-private accesses, pure compute).
    # ------------------------------------------------------------------ #
    def private_accesses(self, count: int) -> None:
        """Model ``count`` loads/stores that static analysis could not
        prove private, so they are instrumented — and at run time turn out
        to reference private data.  The paper's Table 3 shows these
        dominate the runtime calls to the analysis routines."""
        if count <= 0:
            return
        if self._detect:
            self._node.private_instr_calls += count
        base, pc, ac = self._private_costs
        base *= count
        pc *= count
        ac *= count
        self._clock.now += base + pc + ac
        slots = self._slots
        slots[_BASE] += base
        slots[_PROC_CALL] += pc
        slots[_ACCESS_CHECK] += ac

    def compute(self, units: float) -> None:
        """Charge pure computation (uninstrumented work)."""
        if units > 0:
            cycles = self._cm.compute_unit * units
            self._clock.now += cycles
            self._slots[_BASE] += cycles

    def pause(self, times: int = 1) -> None:
        """Yield to the scheduler ``times`` times — models local work long
        enough for other processes to proceed.  Purely a scheduling hint:
        it creates *no* happens-before ordering, which is exactly what the
        weak-memory example programs need (they must let another process
        run first without synchronizing with it)."""
        for _ in range(times):
            self.system.scheduler.yield_control(self.pid)

    # ------------------------------------------------------------------ #
    # Synchronization.
    # ------------------------------------------------------------------ #
    def lock(self, lid: int) -> None:
        self.system.lock_acquire(self.pid, lid)

    def unlock(self, lid: int) -> None:
        self.system.lock_release(self.pid, lid)

    @contextlib.contextmanager
    def locked(self, lid: int):
        self.lock(lid)
        try:
            yield
        finally:
            self.unlock(lid)

    def barrier(self) -> None:
        self.system.barrier(self.pid)

    def set_event(self, eid: int) -> None:
        """Signal a one-shot event (a release: accesses before the set
        happen-before accesses after any wait that observes it)."""
        self.system.event_set(self.pid, eid)

    def wait_event(self, eid: int) -> None:
        """Wait for a one-shot event (the matching acquire)."""
        self.system.event_wait(self.pid, eid)
