"""The paper's §4 analysis routine one word at a time — the executable
spec of :class:`repro.dsm.cvm.Env`'s four access operations.

This is the access engine as the paper describes it: every shared word
is one call of the analysis routine — shared-segment check, page-fault
check, one bit in the open interval's per-page word bitmap — and every
cost category is one ``clock.advance`` of its own, per word.  A range is
that routine in a loop.  It is written against public surfaces only
(``config.cost_model``, ``protocol.ensure_readable`` / ``ensure_writable``,
``Interval.record_read`` / ``record_write``, ``VirtualClock.advance``,
``SharedSegment.check_range``), so it shares nothing with the production
bodies but the hook tail (``Env._after_access`` and the access counter it
reads): no warm test, no block cache, no fused charge, no ``set_range``.

The production ``Env`` must leave the same words, bitmaps, notices,
counters, ledger slots and clock behind, access for access
(``test_env_matches_reference.py``).  :func:`reference_engine` (and the
``reference_env`` / ``engine`` fixtures built on it in ``tests/conftest.py``)
swap it in for ``repro.dsm.cvm.Env``, which ``CVM._proc_main`` resolves
when a simulated process starts.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.dsm import cvm
from repro.dsm.page import PageCopy
from repro.errors import SegmentationFault
from repro.sim.costmodel import CostCategory


def analyse_read(env: cvm.Env, addr: int) -> Tuple[PageCopy, int]:
    """One shared load: the readable copy of its page and the offset."""
    config = env.config
    node = env.system.nodes[env.pid]
    page, off = divmod(addr, config.page_size_words)
    copy = env.system.protocol.ensure_readable(node, page)
    node.clock.advance(config.cost_model.plain_access, CostCategory.BASE)
    if config.detection:
        charge_analysis_call(env)
        node.current.record_read(page, off)
    return copy, off


def analyse_write(env: cvm.Env, addr: int, value: Any) -> None:
    """One shared store.  §6.5 diff mode instruments no store at all."""
    config = env.config
    node = env.system.nodes[env.pid]
    page, off = divmod(addr, config.page_size_words)
    env.system.protocol.ensure_writable(node, page, off).data[off] = value
    node.clock.advance(config.cost_model.plain_access, CostCategory.BASE)
    if config.detection and not config.diff_write_detection:
        charge_analysis_call(env)
        node.current.record_write(page, off)


def charge_analysis_call(env: cvm.Env) -> None:
    """The procedure call (unless inlined) and the access check of one
    instrumented access that turned out to be shared."""
    config = env.config
    cm = config.cost_model
    node = env.system.nodes[env.pid]
    node.shared_instr_calls += 1
    if not config.inline_instrumentation:
        node.clock.advance(cm.proc_call, CostCategory.PROC_CALL)
    node.clock.advance(cm.access_check_shared, CostCategory.ACCESS_CHECK)


def hook_tail(env: cvm.Env, addr: int, count: int, is_write: bool,
              site: Optional[str]) -> None:
    """The part shared with production: trace, pc-watch, crash point and
    yield, visited after every operation."""
    env._accesses_since_yield += count
    env._after_access(addr, count, is_write, site)


class ReferenceEnv(cvm.Env):
    def load(self, addr: int, site: Optional[str] = None) -> Any:
        if not 0 <= addr < self.config.segment_words:
            raise SegmentationFault(self.pid, addr)
        copy, off = analyse_read(self, addr)
        hook_tail(self, addr, 1, False, site)
        # Read after the tail, where production reads it: the tail may
        # yield, and a multi-writer home copy takes diffs meanwhile.
        return copy.data[off]

    def store(self, addr: int, value: Any, site: Optional[str] = None) -> None:
        if not 0 <= addr < self.config.segment_words:
            raise SegmentationFault(self.pid, addr)
        analyse_write(self, addr, value)
        hook_tail(self, addr, 1, True, site)

    def load_range(self, addr: int, count: int,
                   site: Optional[str] = None) -> List[Any]:
        if count <= 0:
            return []
        self.system.segment.check_range(addr, count, self.pid)
        out = []
        for a in range(addr, addr + count):
            copy, off = analyse_read(self, a)
            out.append(copy.data[off])
        hook_tail(self, addr, count, False, site)
        return out

    def store_range(self, addr: int, values: Sequence[Any],
                    site: Optional[str] = None) -> None:
        count = len(values)
        if count == 0:
            return
        self.system.segment.check_range(addr, count, self.pid)
        for a, value in zip(range(addr, addr + count), values):
            analyse_write(self, a, value)
        hook_tail(self, addr, count, True, site)


@contextlib.contextmanager
def reference_engine() -> Iterator[None]:
    """Every simulated process started inside the block runs on
    :class:`ReferenceEnv`."""
    production = cvm.Env
    cvm.Env = ReferenceEnv
    try:
        yield
    finally:
        cvm.Env = production
