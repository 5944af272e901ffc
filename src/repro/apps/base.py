"""Application metadata and run helpers shared by the four workloads."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.dsm.config import DsmConfig
from repro.dsm.cvm import CVM, RunResult


@dataclass(frozen=True)
class AppSpec:
    """One benchmark application.

    Attributes:
        name: Short name ("fft", "sor", "tsp", "water").
        func: The SPMD function ``func(env, params)``.
        default_params: Scaled-down parameters used by tests and default
            bench runs (pure-Python speed).
        paper_params: The paper's Table 1 input sets (runnable, slower).
        input_description: Table 1 "Input Set" text for the default run.
        synchronization: Table 1 "Synchronization" text.
        expect_races: Whether the paper found races in this program.
        footprint_words: ``(params, nprocs, page_size_words)`` -> shared
            words ``func`` allocates, where the app declares it.
    """

    name: str
    func: Callable[..., Any]
    default_params: Any
    paper_params: Any
    input_description: str
    synchronization: str
    expect_races: bool
    footprint_words: Optional[Callable[[Any, int, int], int]] = None

    def config(self, nprocs: int = 8, detection: bool = True,
               **overrides: Any) -> DsmConfig:
        """A DSM configuration sized for this app."""
        base: Dict[str, Any] = dict(
            nprocs=nprocs, detection=detection,
            page_size_words=64, segment_words=1 << 16)
        base.update(overrides)
        return DsmConfig(**base)

    def segment_words(self, params: Any, nprocs: int) -> int:
        """``config``'s segment, or the next power of two that holds the
        footprint ``params`` declare when that is larger."""
        cfg = self.config(nprocs)
        need = (self.footprint_words(params, nprocs, cfg.page_size_words)
                if self.footprint_words else 0)
        return max(cfg.segment_words, 1 << (need - 1).bit_length())

    def run(self, nprocs: int = 8, detection: bool = True,
            params: Any = None, **config_overrides: Any) -> RunResult:
        """Run the application on a fresh CVM instance."""
        cfg = self.config(nprocs=nprocs, detection=detection,
                          **config_overrides)
        return CVM(cfg).run(self.func, params or self.default_params)


@dataclass
class AppResult:
    """Slowdown measurement: paired runs with detection off and on."""

    spec: AppSpec
    nprocs: int
    base: RunResult
    detected: RunResult

    @property
    def slowdown(self) -> float:
        """Table 1 "Slowdown": instrumented runtime / unaltered runtime."""
        if self.base.runtime_cycles <= 0:
            return 1.0
        return self.detected.runtime_cycles / self.base.runtime_cycles


def measure(spec: AppSpec, nprocs: int = 8, params: Any = None,
            **config_overrides: Any) -> AppResult:
    """Run an app twice (unaltered CVM, then with race detection) with the
    identical workload and scheduling seed, and package the pair."""
    base = spec.run(nprocs=nprocs, detection=False, params=params,
                    **config_overrides)
    detected = spec.run(nprocs=nprocs, detection=True, params=params,
                        **config_overrides)
    return AppResult(spec, nprocs, base, detected)


def band(total: int, nprocs: int, pid: int) -> Tuple[int, int]:
    """[start, end) of process ``pid``'s contiguous share of ``total``
    items — the block distribution all four apps use."""
    base_size, extra = divmod(total, nprocs)
    start = pid * base_size + min(pid, extra)
    size = base_size + (1 if pid < extra else 0)
    return start, start + size
