"""Importable helpers shared by test modules (fixtures live in conftest)."""

from __future__ import annotations

import dataclasses
import sys

from repro.dsm.config import DsmConfig
from repro.dsm.cvm import CVM
from repro.sim import scheduler


def small_config(**overrides) -> DsmConfig:
    """A small, fast configuration used across tests: tiny pages so page
    behaviour (faults, false sharing) is easy to provoke."""
    base = dict(nprocs=4, page_size_words=16, segment_words=4096,
                detection=True)
    base.update(overrides)
    return DsmConfig(**base)


def run_app(app, *args, **config_overrides):
    """Run an SPMD function on a fresh CVM with a small config."""
    cfg = small_config(**config_overrides)
    return CVM(cfg).run(app, *args)


def run_app_with_system(app, *args, **config_overrides):
    """Like run_app, but also returns the CVM instance (for inspecting
    stores, segments, vc logs...)."""
    cfg = small_config(**config_overrides)
    system = CVM(cfg)
    return system, system.run(app, *args)


def online_race_keys(result):
    """Canonical (kind, addr, sides) keys from a RunResult, comparable to
    the oracle detectors' output."""
    return {
        (r.kind.value, r.addr,
         tuple(sorted([(r.a.pid, r.a.index, r.a.access),
                       (r.b.pid, r.b.index, r.b.access)])))
        for r in result.races
    }


def detector_state(detector):
    """Everything a detector's commits wrote, as plain values (a copy):
    the reports, the dedup state, the counters with their per-epoch
    history, the first-race epoch and the probe count."""
    return dict(
        races=list(detector.races),
        unverifiable=list(detector.unverifiable),
        seen_keys=set(detector._seen_keys),
        unverifiable_pair_keys=set(detector._unverifiable_pair_keys),
        first_race_epoch=detector._first_race_epoch,
        actual_comparisons=detector.actual_comparisons,
        stats=dataclasses.asdict(detector.stats))


def stats_dict(stats):
    """``DetectorStats`` in the form the golden files were captured in:
    the three coarse-filter counters are left out when all are zero."""
    data = dataclasses.asdict(stats)
    if not (stats.granule_checks or stats.granule_hits
            or stats.pairs_filtered):
        for name in ("granule_checks", "granule_hits", "pairs_filtered"):
            del data[name]
    return data


def assert_pool_parked():
    """Every pooled scheduler worker is parked: no job, the idle name, and
    its thread waiting in the worker loop itself, below no job frame."""
    frames = sys._current_frames()
    for worker in scheduler._idle:
        assert worker.job is None
        assert worker.thread.name == scheduler._IDLE_NAME
        assert worker.thread.is_alive()
        assert frames[worker.thread.ident].f_code.co_name == "_loop"
