"""Layer microbenchmarks of the spine benchmark (about 1.5 s in total)
and the offline replay of captured detection epochs.  Everything here
calls public functions only; nothing is wrapped or patched.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Tuple

from repro.core.bitmap import Bitmap, coarse_digest
from repro.core.checklist import build_check_list_fast
from repro.core.concurrency import (PairSearchStats,
                                    find_concurrent_pairs_pruned)
from repro.core.detector import RaceDetector
from repro.dsm.config import DsmConfig
from repro.dsm.cvm import CVM
from repro.net.message import WireSizer
from repro.net.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory
from repro.sim.scheduler import Scheduler

PAGE_WORDS = 64
#: ``yield_control`` calls per process in the handoff ping; sized so the
#: 32-process ping stays under half a second even unpinned.
PING_YIELDS = {8: 100, 32: 16}


def _ns_per_call(fn: Callable[[], object], calls: int) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        fn()
    return (time.perf_counter_ns() - t0) / calls


def clock_micro() -> Dict[str, float]:
    clock = VirtualClock()
    parts = ((CostCategory.BASE, 1.0), (CostCategory.PROC_CALL, 2.0),
             (CostCategory.ACCESS_CHECK, 4.0))
    return {
        "sim.clock.advance_ns": _ns_per_call(
            lambda: clock.advance(1.0, CostCategory.BASE), 100_000),
        "sim.clock.advance_split_ns": _ns_per_call(
            lambda: clock.advance_split(7.0, parts), 100_000),
    }


def bitmap_micro() -> Dict[str, float]:
    target = Bitmap(PAGE_WORDS)
    left, right = Bitmap(PAGE_WORDS), Bitmap(PAGE_WORDS)
    left.set_range(0, 24)
    right.set_range(40, 24)
    return {
        "core.bitmap.set_ns": _ns_per_call(lambda: target.set(37), 100_000),
        "core.bitmap.set_range_ns": _ns_per_call(
            lambda: target.set_range(3, 40), 50_000),
        "core.bitmap.overlaps_ns": _ns_per_call(
            lambda: left.overlaps(right), 100_000),
        "core.bitmap.digest_ns": _ns_per_call(
            lambda: coarse_digest(left, PAGE_WORDS), 50_000),
    }


def env_micro() -> Dict[str, float]:
    """One process, detection on: a page-sized range access per call vs
    one word per call, timed inside the application function."""
    pages, scalar_calls = 256, 20_000
    out: Dict[str, float] = {}

    def app(env) -> None:
        base = env.malloc(pages * PAGE_WORDS, name="micro",
                          page_aligned=True)
        values = [0] * PAGE_WORDS
        t0 = time.perf_counter_ns()
        for page in range(pages):
            env.store_range(base + page * PAGE_WORDS, values)
            env.load_range(base + page * PAGE_WORDS, PAGE_WORDS)
        t1 = time.perf_counter_ns()
        for i in range(scalar_calls // 2):
            env.store(base + i % PAGE_WORDS, i)
            env.load(base + i % PAGE_WORDS)
        t2 = time.perf_counter_ns()
        out["dsm.env.range_ns_per_word"] = (
            (t1 - t0) / (2 * pages * PAGE_WORDS))
        out["dsm.env.scalar_ns_per_call"] = (t2 - t1) / scalar_calls

    CVM(DsmConfig(nprocs=1, page_size_words=PAGE_WORDS,
                  segment_words=1 << 16)).run(app)
    return out


def ping_us(nprocs: int) -> float:
    """Microseconds per dispatcher switch of a bare ``Scheduler`` whose
    processes do nothing but ``yield_control`` — the token handoff alone,
    under whatever CPU affinity the caller has set."""
    sched = Scheduler()

    def proc(pid: int) -> None:
        for _ in range(PING_YIELDS[nprocs]):
            sched.yield_control(pid)

    for pid in range(nprocs):
        sched.spawn(proc, pid)
    t0 = time.perf_counter_ns()
    sched.run()
    return (time.perf_counter_ns() - t0) / sched.switches / 1e3


def replay_detection(captured_cells: Iterable) -> Tuple[float, float, float]:
    """Seconds spent replaying the traced rep's captured epochs through
    the pruned pair search, the inverted-index check list, and a fresh
    ``RaceDetector.run_epoch`` (whose remainder is the bitmap round)."""
    pair_ns = build_ns = replay_ns = 0
    for cell in captured_cells:
        cfg = cell.config
        for _epoch, intervals in cell.epochs:
            t0 = time.perf_counter_ns()
            for _pair in find_concurrent_pairs_pruned(intervals,
                                                      PairSearchStats()):
                pass
            t1 = time.perf_counter_ns()
            build_check_list_fast(intervals)
            t2 = time.perf_counter_ns()
            pair_ns += t1 - t0
            build_ns += t2 - t1
        detector = RaceDetector(
            cfg.page_size_words, cfg.cost_model,
            WireSizer(cfg.nprocs, cfg.page_size_words),
            Transport(cfg.cost_model),
            symbol_for=lambda addr: f"word+{addr}",
            fast_path=cfg.detector_fast_path,
            coarse_filter=cfg.coarse_filter)
        clock = VirtualClock()
        t0 = time.perf_counter_ns()
        for epoch, intervals in cell.epochs:
            detector.run_epoch(intervals, epoch, clock)
        replay_ns += time.perf_counter_ns() - t0
    return pair_ns / 1e9, build_ns / 1e9, replay_ns / 1e9
