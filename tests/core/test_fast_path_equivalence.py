"""Fast-path detection engine: full-pipeline equivalence.

The synthetic-interval tests in test_concurrency_pruned.py establish the
primitives; these run every registered application end to end under both
``detector_fast_path`` settings and assert that *everything observable*
matches: race reports, the whole DetectorStats (including per-epoch
history), the per-process virtual-time ledgers, and the final runtime —
the guarantee that lets the fast path be the default engine while
Tables 1-3 and Figures 3-4 stay bit-identical.

The last tests are the fast path's timing-free work budget: the
Python-level calls (``sys.setprofile`` ``call`` events) made inside
``RaceDetector.run_epoch`` on water@8 and water@16.  The reference
engine's literal O(i^2 p^2) pair walk makes about 40x the fast path's
(460,372 vs 10,318 at 8 procs, 1,146,027 vs 28,823 at 16; equal under
``PYTHONHASHSEED`` 0 and 7).  The budget holds the ratio at 10x or
more, so a fast path that stops skipping the comparisons synchronization
and program order rule out fails it, on any machine and at any load.
"""

import sys

import pytest

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.core.detector import RaceDetector
from repro.sim.costmodel import CostCategory

#: How many times the fast path's calls the reference engine must make.
MIN_CALL_RATIO = 10

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)


def paired_runs(app: str, **overrides):
    spec = get_app(app)
    fast = spec.run(nprocs=8, detector_fast_path=True, **overrides)
    ref = spec.run(nprocs=8, detector_fast_path=False, **overrides)
    return fast, ref


def assert_equivalent(fast, ref):
    assert [r.key() for r in fast.races] == [r.key() for r in ref.races]
    assert fast.detector_stats == ref.detector_stats
    assert fast.runtime_cycles == ref.runtime_cycles
    assert len(fast.ledgers) == len(ref.ledgers)
    for lf, lr in zip(fast.ledgers, ref.ledgers):
        assert lf.totals == lr.totals


@pytest.mark.parametrize("app", ALL_APPS)
def test_fast_path_matches_reference(app):
    fast, ref = paired_runs(app)
    assert_equivalent(fast, ref)


@pytest.mark.parametrize("app", ["tsp", "water", "hashtab", "bfs"])
def test_fast_path_matches_reference_16_procs(app):
    """More processes, more intervals per epoch, more concurrent pairs:
    hashtab and bfs synchronize by barriers only, so every process pair
    of an epoch is one unordered block; water's locks make its blocks
    bisect."""
    spec = get_app(app)
    fast = spec.run(nprocs=16, detector_fast_path=True)
    ref = spec.run(nprocs=16, detector_fast_path=False)
    assert_equivalent(fast, ref)


def test_fast_path_matches_reference_consolidation():
    """Consolidation passes call run_epoch mid-epoch on partial interval
    sets; the engines must agree there too."""
    fast, ref = paired_runs("tsp", consolidation_interval=6)
    assert_equivalent(fast, ref)


def test_fast_path_matches_reference_first_races_only():
    fast, ref = paired_runs("water", first_races_only=True)
    assert_equivalent(fast, ref)


def test_fast_path_matches_reference_multi_writer():
    fast, ref = paired_runs("water", protocol="mw",
                            diff_write_detection=True)
    assert_equivalent(fast, ref)


def test_fast_path_is_the_default_and_decoupled_from_charging():
    """The default config uses the fast engine, and its INTERVALS ledger
    charge equals the reference engine's — virtual time stays the model's
    even though the executed algorithm changed."""
    fast, ref = paired_runs("water")
    agg_fast = fast.aggregate_ledger().totals[CostCategory.INTERVALS]
    agg_ref = ref.aggregate_ledger().totals[CostCategory.INTERVALS]
    assert agg_fast == agg_ref > 0
    assert fast.config.detector_fast_path is True
    assert ref.config.detector_fast_path is False


@pytest.fixture
def epoch_calls(monkeypatch):
    """Python-level calls made inside each ``run_epoch``, in call order."""
    counts = []
    production = RaceDetector.run_epoch

    def profiled(self, intervals, epoch, master_clock):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            return production(self, intervals, epoch, master_clock)
        finally:
            sys.setprofile(None)
            # The first event is the production frame itself.
            counts.append(calls - 1)

    monkeypatch.setattr(RaceDetector, "run_epoch", profiled)
    return counts


@pytest.mark.parametrize("nprocs", [8, 16])
def test_fast_path_stays_within_its_call_budget(epoch_calls, nprocs):
    spec = get_app("water")
    calls = {}
    for fast_path in (True, False):
        epoch_calls.clear()
        spec.run(nprocs=nprocs, detector_fast_path=fast_path)
        assert epoch_calls, "no epoch was detected"
        calls[fast_path] = sum(epoch_calls)
    assert calls[False] >= MIN_CALL_RATIO * calls[True], calls
