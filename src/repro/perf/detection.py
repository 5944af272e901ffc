"""Offline re-execution of barrier-time detection, for benchmarking.

The barrier master's epoch analysis is a pure function of the closing
epoch's interval records (plus the cost model), so it can be captured
from a real application run once and then replayed through either
execution engine — the reference O(i²p²) algorithm or the fast path —
on *bit-identical inputs*.  That is what makes the wall-clock comparison
in ``benchmarks/bench_wallclock.py`` honest: both engines chew the same
epochs, and their verdicts/ledgers can be compared for equality in the
same breath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.apps.base import AppSpec
from repro.core.detector import DetectorStats, RaceDetector
from repro.dsm.cvm import CVM, RunResult
from repro.dsm.interval import Interval
from repro.net.message import WireSizer
from repro.net.transport import Transport
from repro.perf.timing import BenchSample, timeit_best
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostModel


@dataclass
class CapturedEpoch:
    """One interval batch handed to ``RaceDetector.run_epoch``."""

    epoch: int
    intervals: List[Interval]


@dataclass
class DetectionTiming:
    """Result of replaying captured epochs through one engine."""

    label: str
    fast_path: bool
    sample: BenchSample
    races: List[Any]
    stats: DetectorStats
    clock_now: float
    ledger_totals: dict
    #: Vector-clock probes the engine actually performed.
    actual_comparisons: int

    def fingerprint(self) -> Tuple:
        """Everything observable about the run except wall-clock: equal
        fingerprints == equivalent engines."""
        return (tuple(r.key() for r in self.races), self.stats,
                self.clock_now,
                tuple(sorted((k.value, v)
                             for k, v in self.ledger_totals.items())))


def capture_epochs(spec: AppSpec, nprocs: int = 8, params: Any = None,
                   **config_overrides: Any
                   ) -> Tuple[RunResult, List[CapturedEpoch]]:
    """Run ``spec`` once with detection on, retaining every epoch's
    interval batch before the store discards it.

    The interval objects (bitmaps included) stay alive because the
    captured list holds references; ``IntervalStore.discard_epoch`` only
    drops the store's own tables.
    """
    cfg = spec.config(nprocs=nprocs, detection=True, **config_overrides)
    system = CVM(cfg)
    captured: List[CapturedEpoch] = []
    inner = system.detector.run_epoch

    def recording(intervals, epoch, master_clock):
        captured.append(CapturedEpoch(epoch, list(intervals)))
        return inner(intervals, epoch, master_clock)

    system.detector.run_epoch = recording
    result = system.run(spec.func, params or spec.default_params)
    return result, captured


def time_detection(epochs: List[CapturedEpoch], page_size_words: int,
                   nprocs: int, fast_path: bool,
                   cost_model: Optional[CostModel] = None,
                   repeats: int = 3, label: str = "") -> DetectionTiming:
    """Replay ``epochs`` through a fresh detector ``repeats`` times and
    wall-clock the full analysis (pair search, check list, bitmap round
    accounting, bitmap intersection).

    Detector, transport and master clock are rebuilt per repeat so every
    sample does identical work (the detector deduplicates race reports
    across epochs via internal state).
    """
    cm = cost_model or CostModel()
    last: dict = {}

    def one_run() -> None:
        detector = RaceDetector(
            page_size_words, cm, WireSizer(nprocs, page_size_words),
            Transport(cm), symbol_for=lambda addr: f"word+{addr}",
            master_pid=0, fast_path=fast_path)
        clock = VirtualClock()
        for ep in epochs:
            detector.run_epoch(ep.intervals, ep.epoch, clock)
        last["detector"] = detector
        last["clock"] = clock

    sample = timeit_best(one_run, repeats=repeats, label=label)
    detector = last["detector"]
    clock = last["clock"]
    return DetectionTiming(
        label=label, fast_path=fast_path, sample=sample,
        races=list(detector.races), stats=detector.stats,
        clock_now=clock.now, ledger_totals=clock.ledger.totals,
        actual_comparisons=detector.actual_comparisons)
