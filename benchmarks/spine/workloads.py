"""Workloads of the spine benchmark: frozen cells, sizes and rep constants.

A *workload* is a tuple of *cells*; one *rep* runs every cell once, each
on a fresh ``CVM``.  Every cell runs at ``page_size_words=64,
segment_words=1<<16`` (``AppSpec.config``) with the coarse filter at its
default (on).

``--seed S`` becomes the ``fault_seed`` of every cell: it draws the
network's drop / duplicate / reorder schedule, so it moves
``durable_lossy`` and nothing else.  The interleaving seed
(``DsmConfig.seed``, read by ``policy="random"``) is frozen at
``SCHEDULE_SEED`` like the cell sizes: across ten interleaving seeds the
simulated work itself moves (``lock_churn`` ``sim_cycles`` quartile range
13 % of its median, ``sim_slowdown`` 5 %), which would turn the exact
simulated metrics into loose ones and bury a host-time change under a
change of workload.

The sizes were chosen on the 2-CPU reference box so that one rep is about
1 s with default affinity and about 0.5 s pinned to one CPU
(``detect_stress``: twice that); they are frozen — change them only in a
PR that re-measures the baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.apps.base import AppSpec
from repro.apps.fft import FftParams
from repro.apps.hashtab import HashTabParams
from repro.apps.registry import get_app
from repro.apps.sor import SorParams
from repro.apps.water import WaterParams

#: Timed reps per affinity mode in a ``--quick`` run.
QUICK_REPS = 3
#: Floor on timed reps per mode in a full run, however short ``--seconds``.
MIN_REPS = 3
#: Default measuring time of a full run: on the reference box 10
#: (``detect_stress``) to 28 pinned reps, or 4 to 8 unpinned / pinned pairs.
#: ``BENCHMARK.json`` ``run_seconds`` carries the same number.
RUN_SECONDS = 12
#: Set-up passes per full run; ``setup_s`` reports their median.
SETUP_PASSES = 3
#: Host-time cap of one oracle cell (traced run + happens-before oracle).
ORACLE_CAP_S = 3.0

#: Scratch for checkpoint directories, trace files and the children's
#: records; inside the checkout (the driver allows writes nowhere else) and
#: git-ignored.
WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

#: ``DsmConfig.seed`` of every cell (see the module docstring).
SCHEDULE_SEED = 0

@dataclass(frozen=True)
class StressParams:
    epochs: int = 3
    intervals: int = 12
    pages: int = 2


def detect_stress(env, params: StressParams) -> int:
    """Synthetic pair-search stressor (same program as
    ``benchmarks/bench_detection_scaleout.py``, copied so the spine
    imports nothing from the older scripts).

    Each process runs ``intervals`` critical sections per epoch under its
    *own* lock — no cross-process ordering, so every interval is
    concurrent with every other process's intervals and the pair search
    sees the full quadratic block grid.  The writes land on shared pages
    at per-pid word offsets (false sharing: overlap at page level, no
    races), plus one genuinely racy word so the report is non-trivial.
    """
    psz = env.system.config.page_size_words
    base = env.malloc(8 * psz, name="field", page_aligned=True)
    racy = env.malloc(psz, name="racy", page_aligned=True)
    for _ in range(params.epochs):
        for it in range(params.intervals):
            with env.locked(env.pid):
                for pg in range(params.pages):
                    env.store(base + pg * psz + env.pid, it)
            if env.pid < 2 and it == 0:
                env.store(racy, env.pid)
        env.barrier()
    return 0


STRESS_SPEC = AppSpec(
    name="detect_stress", func=detect_stress,
    default_params=StressParams(), paper_params=StressParams(),
    synchronization="locks+barriers",
    input_description="synthetic pair-search stressor",
    expect_races=True)

#: Apps that run on the mini-ISA interpreter; their root span is the
#: ``instrument.machine`` layer, not ``apps``.
DSL_APPS = frozenset({"hashtab", "bfs", "wsdeque"})


def spec_of(app: str) -> AppSpec:
    return STRESS_SPEC if app == "detect_stress" else get_app(app)


@dataclass(frozen=True)
class Cell:
    """One ``CVM`` run of a rep.  ``flags`` are ``DsmConfig`` overrides;
    a string value may contain ``{tmp}``, replaced by the rep's scratch
    directory (checkpoint directory, trace file)."""

    label: str
    app: str
    nprocs: int
    params: Any = None
    flags: Dict[str, Any] = field(default_factory=dict)

    def config_flags(self, seed: int, tmp: str) -> Dict[str, Any]:
        out: Dict[str, Any] = dict(seed=SCHEDULE_SEED, fault_seed=seed)
        for key, value in self.flags.items():
            if isinstance(value, str):
                value = value.replace("{tmp}", tmp)
            out[key] = value
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Tuple[Cell, ...]
    #: The oracle cell(s): same apps and flags at registry default
    #: parameters (shrunk only to respect ``ORACLE_CAP_S``), run with
    #: ``track_access_trace=True`` and compared with the happens-before
    #: oracle.
    oracle: Tuple[Cell, ...]


_RANDOM = dict(policy="random")
_DURABLE_ONLINE = dict(loss_rate=0.05, duplicate_rate=0.05, reorder_rate=0.05,
                       checkpoint_dir="{tmp}/ckpt", checkpoint_delta=True)
_RECORD = dict(mode="record", trace_file="{tmp}/water.trace")
_OFFLINE = dict(mode="detect-offline", trace_file="{tmp}/water.trace")
_DURABLE_CELLS = (
    Cell("water@8-lossy-ckpt", "water", 8, None, _DURABLE_ONLINE),
    Cell("water@8-record", "water", 8, None, _RECORD),
    Cell("water@8-offline", "water", 8, None, _OFFLINE),
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "range_sweep",
        "1.1 M range words, 0 races: the dsm.env range path, "
        "core.bitmap.set_range and dsm.protocol faults do the work; "
        "core.detector does nothing",
        cells=(
            Cell("sor@8", "sor", 8, SorParams(rows=192, cols=128,
                                               iterations=10)),
            Cell("fft@8", "fft", 8, FftParams(n=64, iterations=2)),
        ),
        oracle=(Cell("sor@8", "sor", 8), Cell("fft@8", "fft", 8)),
    ),
    Workload(
        "lock_churn",
        "locks + barriers, 1.4 k intervals, 4.2 k messages: sim.scheduler "
        "handoff, dsm.sync grant/interval shipping, net.transport and "
        "sim.clock charges; real races but core.detector < 10 % of time",
        cells=(
            Cell("water@8", "water", 8, WaterParams(nmol=64, steps=3),
                 _RANDOM),
        ),
        oracle=(Cell("water@8", "water", 8, None, _RANDOM),),
    ),
    Workload(
        "detect_stress",
        "pair-search stressor: core.detector/concurrency/checklist are "
        "about two thirds of pinned time; 32 threads make it the worst "
        "case for scheduler handoff; dsm.env does almost nothing",
        cells=(
            Cell("stress@32", "detect_stress", 32,
                 StressParams(epochs=1, intervals=12, pages=2)),
            Cell("stress@16-sharded", "detect_stress", 16,
                 StressParams(epochs=1, intervals=12, pages=2),
                 dict(sharded_detection=True)),
        ),
        # Shrunk from the default 3 x 12 x 2: the traced run pays the
        # same pair search as the timed cells.
        oracle=(
            Cell("stress@32", "detect_stress", 32,
                 StressParams(epochs=1, intervals=4, pages=2)),
            Cell("stress@16-sharded", "detect_stress", 16,
                 StressParams(epochs=2, intervals=6, pages=2),
                 dict(sharded_detection=True)),
        ),
    ),
    Workload(
        "irregular_scalar",
        "scalar Env.load/store through the instrument.machine "
        "interpreter, thousands of race reports: the range_sweep access "
        "layer used word-at-a-time, plus report construction",
        cells=(
            Cell("hashtab@16", "hashtab", 16,
                 HashTabParams(nb=8, keys_per_pid=6, rounds=3), _RANDOM),
            Cell("bfs@16", "bfs", 16, None, _RANDOM),
            Cell("wsdeque@16", "wsdeque", 16, None, _RANDOM),
        ),
        oracle=(
            Cell("hashtab@16", "hashtab", 16, None, _RANDOM),
            Cell("bfs@16", "bfs", 16, None, _RANDOM),
            Cell("wsdeque@16", "wsdeque", 16, None, _RANDOM),
        ),
    ),
    Workload(
        "durable_lossy",
        "water three ways (lossy net + delta checkpoints to disk, record, "
        "detect-offline): net.reliable, dsm.checkpoint file writes and "
        "replay.trace, writes beside reads; guards the durable layers",
        # Already at registry default parameters: the oracle cells are the
        # cells (the record cell only writes the trace the next one reads).
        cells=_DURABLE_CELLS, oracle=_DURABLE_CELLS,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
