"""End-to-end robustness: fault schedules are replayable, detection
survives a lossy network, and the degradation path is explicit.

The acceptance bar (ISSUE 2): with a fixed ``--fault-seed`` the whole
drop/duplicate/reorder schedule — and therefore the final race report —
is identical across runs; with moderate fault rates every app completes
and reports the *same* races as a reliable run; and when the bitmap round
is forced to fail, affected pages are reported at page granularity,
flagged, never silently dropped.
"""

import pytest

from repro.apps.registry import get_app
from repro.net.faults import FaultPlan, FaultRates
from repro.sim.costmodel import CostCategory

FAULTY = dict(loss_rate=0.1, duplicate_rate=0.05, reorder_rate=0.05,
              fault_seed=5)


def run_queue(**overrides):
    spec = get_app("queue_racy")
    return spec.run(nprocs=3, **overrides)


def race_lines(result):
    return sorted(str(r) for r in result.races)


def reliable(result):
    """The reliable channel's counters of a run."""
    return {name: value for name, value in result.metrics.items()
            if name.startswith("net.reliable.")}


def test_same_fault_seed_identical_schedule_and_report():
    a, b = run_queue(**FAULTY), run_queue(**FAULTY)
    assert race_lines(a) == race_lines(b)
    assert a.metrics == b.metrics
    assert a.runtime_cycles == b.runtime_cycles
    assert a.traffic.drops > 0  # the schedule actually exercised faults


def test_different_fault_seed_different_schedule():
    a = run_queue(**FAULTY)
    b = run_queue(**dict(FAULTY, fault_seed=6))
    assert reliable(a) != reliable(b)


def test_lossy_run_reports_same_races_as_reliable_run():
    lossy, clean = run_queue(**FAULTY), run_queue()
    assert race_lines(lossy) == race_lines(clean)
    assert all(r.granularity == "word" for r in lossy.races)


@pytest.mark.parametrize("app", ["water", "tsp"])
def test_registered_apps_complete_and_agree_under_loss(app):
    spec = get_app(app)
    lossy = spec.run(nprocs=4, loss_rate=0.08, fault_seed=7)
    clean = spec.run(nprocs=4)
    assert race_lines(lossy) == race_lines(clean)
    assert lossy.traffic.retransmits > 0
    ledger = lossy.aggregate_ledger()
    assert ledger.totals[CostCategory.RETRANSMIT] > 0


def test_faults_disabled_is_byte_identical():
    clean_a, clean_b = run_queue(), run_queue()
    assert clean_a.runtime_cycles == clean_b.runtime_cycles
    assert reliable(clean_a) == {
        "net.reliable.drops": 0, "net.reliable.retransmits": 0,
        "net.reliable.duplicates": 0, "net.reliable.reorders": 0,
        "net.reliable.acks": 0, "net.reliable.retry_failures": 0}
    ledger = clean_a.aggregate_ledger()
    assert ledger.totals[CostCategory.RETRANSMIT] == 0.0
    assert "ack" not in clean_a.traffic.messages_by_tag


def test_bitmap_round_failure_degrades_to_page_granularity():
    # Drop every bitmap_reply with a tiny budget: the master can never
    # retrieve remote word bitmaps, so every remote check entry must
    # surface as an explicitly flagged page-granularity report.
    plan = FaultPlan(by_tag={"bitmap_reply": FaultRates(drop=0.99)}, seed=1)
    degraded = run_queue(fault_plan=plan, retry_budget=2)
    clean = run_queue()
    assert clean.races  # the workload really races
    assert degraded.races, "degradation must not silently drop reports"
    page_reports = [r for r in degraded.races if r.granularity == "page"]
    assert page_reports
    for r in page_reports:
        assert "page-granularity" in str(r)
        assert r.offset == 0
    st = degraded.detector_stats
    assert st.bitmap_rounds_failed > 0
    assert st.page_granularity_reports == len(page_reports)
    assert degraded.traffic.retry_failures > 0
    # Every page that carried a word-level race in the clean run is
    # covered by some report (word or page) in the degraded run.
    degraded_pages = {r.page for r in degraded.races}
    assert {r.page for r in clean.races} <= degraded_pages


def test_degraded_reports_count_in_detector_stats():
    plan = FaultPlan(by_tag={"bitmap_reply": FaultRates(drop=0.99)}, seed=1)
    degraded = run_queue(fault_plan=plan, retry_budget=2)
    assert degraded.detector_stats.races_found == len(degraded.races)
