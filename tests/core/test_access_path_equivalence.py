"""Access fast path (batched Env engine): full-pipeline equivalence.

Mirrors test_fast_path_equivalence.py one layer down: every registered
application runs end to end under both ``access_fast_path`` settings —
the fused-charge batched engine (default) versus the per-word scalar
chain (the paper's literal one-call-per-access instrumentation) — and
*everything observable* must match: race reports, detector statistics,
access counters, traffic totals, the per-process virtual-time ledgers,
and the final runtime.  That equality is what lets the batched engine be
the default while Tables 1-3 and Figures 3-4 stay byte-identical, and it
is the correctness gate of ``benchmarks/bench_endtoend.py``.
"""

import pytest

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.sim.costmodel import CostCategory

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)


def paired_runs(app: str, nprocs: int = 8, **overrides):
    spec = get_app(app)
    if app == "queue_racy":
        nprocs = 3
    fast = spec.run(nprocs=nprocs, access_fast_path=True, **overrides)
    ref = spec.run(nprocs=nprocs, access_fast_path=False, **overrides)
    return fast, ref


def assert_equivalent(fast, ref):
    assert [r.key() for r in fast.races] == [r.key() for r in ref.races]
    assert fast.detector_stats == ref.detector_stats
    assert fast.runtime_cycles == ref.runtime_cycles
    assert fast.shared_instr_calls == ref.shared_instr_calls
    assert fast.traffic.total_messages == ref.traffic.total_messages
    assert fast.traffic.total_bytes == ref.traffic.total_bytes
    assert len(fast.ledgers) == len(ref.ledgers)
    for lf, lr in zip(fast.ledgers, ref.ledgers):
        assert lf.totals == lr.totals


@pytest.mark.parametrize("app", ALL_APPS)
def test_batched_matches_scalar(app):
    fast, ref = paired_runs(app)
    assert_equivalent(fast, ref)


@pytest.mark.parametrize("app", ["sor", "water"])
def test_batched_matches_scalar_16_procs(app):
    fast, ref = paired_runs(app, nprocs=16)
    assert_equivalent(fast, ref)


def test_batched_matches_scalar_detection_off():
    """The uninstrumented baseline (slowdown denominators) must agree too."""
    fast, ref = paired_runs("sor", detection=False)
    assert_equivalent(fast, ref)


def test_batched_matches_scalar_multi_writer_diffs():
    """MW diff mode skips store instrumentation; both engines must skip
    the identical charges."""
    fast, ref = paired_runs("water", protocol="mw",
                            diff_write_detection=True)
    assert_equivalent(fast, ref)


def test_batched_matches_scalar_inline_instrumentation():
    """inline mode zeroes the proc-call component of the fused charge."""
    fast, ref = paired_runs("fft", inline_instrumentation=True)
    assert_equivalent(fast, ref)


def test_batched_matches_scalar_under_faults():
    """Fault configs route traffic through the reliable channel; retry
    timeouts interleave with access charges and must still line up."""
    fast, ref = paired_runs("tsp", loss_rate=0.05, fault_seed=3)
    assert_equivalent(fast, ref)
    assert fast.traffic.retransmits == ref.traffic.retransmits > 0


def test_batched_matches_scalar_under_crashes():
    """Crash configs evaluate a crash point in the hook tail of every
    access call, on both engines alike; verdicts must not move."""
    fast, ref = paired_runs("water", crash_rate=0.01, crash_seed=7,
                            checkpoint=True)
    assert_equivalent(fast, ref)
    assert fast.crash_stats.crashes == ref.crash_stats.crashes > 0


def test_fused_charge_decomposition_matches():
    """The fused in-line charge attributes exactly what the scalar chain
    attributes, category by category."""
    fast, ref = paired_runs("sor")
    for cat in (CostCategory.BASE, CostCategory.PROC_CALL,
                CostCategory.ACCESS_CHECK):
        assert fast.aggregate_ledger().totals.get(cat, 0.0) == \
            ref.aggregate_ledger().totals.get(cat, 0.0)


def test_batched_is_the_default():
    fast, ref = paired_runs("water")
    assert fast.config.access_fast_path is True
    assert ref.config.access_fast_path is False
