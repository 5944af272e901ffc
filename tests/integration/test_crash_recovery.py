"""Crash-tolerance integration: chaos seed sweeps, recovery equivalence,
and sound detector degradation under lost metadata.

The headline guarantees (ISSUE acceptance criteria):

* checkpoint-recovered runs produce race reports *byte-identical* to the
  crash-free run, across a sweep of crash seeds;
* without checkpoints, every concurrent overlapping pair touching a
  crash-lost interval surfaces as an explicit ``unverifiable`` entry —
  checks are degraded, never silently dropped;
* crashes disabled (the default) leaves every artifact byte-identical:
  zero RECOVERY cycles, zero crash counters.
"""

import pytest

from repro.apps.registry import get_app
from repro.errors import DeadlockError
from repro.sim.costmodel import CostCategory
from repro.sim.crash import CrashStats

CHAOS_SEEDS = [1, 2, 3, 4, 5]


def _report_lines(result):
    """The exact artifact ``repro run --report`` writes: sorted formatted
    race lines (unverifiable entries deliberately excluded)."""
    return sorted(str(r) for r in result.races)


@pytest.fixture(scope="module")
def tsp_free():
    return get_app("tsp").run(nprocs=4)


@pytest.fixture(scope="module")
def water_free():
    return get_app("water").run(nprocs=4)


# ---------------------------------------------------------------------- #
# Checkpoint recovery: byte-identical reports across a chaos sweep.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_checkpoint_recovery_reports_byte_identical(seed, tsp_free):
    res = get_app("tsp").run(nprocs=4, crash_rate=0.02, crash_seed=seed,
                             checkpoint=True)
    assert _report_lines(res) == _report_lines(tsp_free)
    cs = res.crash_stats
    assert cs.recoveries_from_checkpoint == cs.crashes
    assert cs.recoveries_without_checkpoint == 0
    assert cs.intervals_lost == 0
    assert res.unverifiable == []
    assert cs.checkpoints_written > 0


def test_chaos_sweep_actually_crashes():
    """The sweep must exercise recovery, not vacuously pass."""
    total = sum(
        get_app("tsp").run(nprocs=4, crash_rate=0.02, crash_seed=s,
                           checkpoint=True).crash_stats.crashes
        for s in CHAOS_SEEDS)
    assert total > 0


def test_checkpoint_recovery_charges_recovery_cycles(tsp_free):
    res = get_app("tsp").run(nprocs=4, crash_rate=0.02, crash_seed=11,
                             checkpoint=True)
    assert res.crash_stats.crashes > 0
    assert res.aggregate_ledger().totals.get(CostCategory.RECOVERY, 0.0) > 0
    # RECOVERY stays out of the Figure 3 overhead taxonomy.
    assert "recovery" not in res.overhead_breakdown()
    # Crashes cost time: the recovered run is slower than the free one.
    assert res.runtime_cycles > tsp_free.runtime_cycles


def test_master_declares_deaths(tsp_free):
    res = get_app("tsp").run(nprocs=4, crash_rate=0.02, crash_seed=11,
                             checkpoint=True)
    cs = res.crash_stats
    assert cs.deaths_declared == cs.crashes > 0


# ---------------------------------------------------------------------- #
# Degradation without checkpoints: sound, explicit, never silent.
# ---------------------------------------------------------------------- #
def test_no_checkpoint_degradation_is_explicit(water_free):
    res = get_app("water").run(nprocs=4, crash_rate=0.01, crash_seed=7)
    cs = res.crash_stats
    st = res.detector_stats
    assert cs.crashes > 0
    assert cs.recoveries_without_checkpoint == cs.crashes
    assert cs.recoveries_from_checkpoint == 0
    assert cs.intervals_lost > 0
    # Metadata died: there must be unverifiable pair entries, counted.
    assert res.unverifiable
    assert st.unverifiable_pairs > 0
    assert st.unverifiable_reports == len(res.unverifiable)
    for entry in res.unverifiable:
        assert entry.verdict == "unverifiable"
        assert entry.granularity == "page"
        assert entry.lost_intervals  # names the lost interval id(s)
        assert "UNVERIFIABLE" in str(entry)
        assert "lost:" in str(entry)
    # Checks not touching a lost interval are unaffected: every surviving
    # race is also in the crash-free report.
    assert set(_report_lines(res)) <= set(_report_lines(water_free))
    # ... and some were genuinely unresolvable (the run lost information).
    assert len(res.races) < len(water_free.races)


def test_lost_intervals_never_silently_dropped(water_free):
    """Every crash-free race whose intervals were lost must resurface as
    an unverifiable pair (at page granularity) rather than vanish."""
    res = get_app("water").run(nprocs=4, crash_rate=0.01, crash_seed=7)
    lost_ids = set()
    for entry in res.unverifiable:
        lost_ids.update(entry.lost_intervals)
    found = {str(r) for r in res.races}
    unverifiable_sides = {(e.a.pid, e.a.index) for e in res.unverifiable} \
        | {(e.b.pid, e.b.index) for e in res.unverifiable}
    for race in water_free.races:
        if str(race) in found:
            continue
        # A missing race must involve an interval from an unverifiable
        # pair (same epoch scope; indexes shift only past recovery).
        sides = {(race.a.pid, race.a.index), (race.b.pid, race.b.index)}
        assert sides & unverifiable_sides, (
            f"race silently dropped with no unverifiable trace: {race}")


# ---------------------------------------------------------------------- #
# Determinism and the explicit schedule.
# ---------------------------------------------------------------------- #
def test_same_crash_seed_reproduces_run_exactly():
    a = get_app("water").run(nprocs=4, crash_rate=0.01, crash_seed=7)
    b = get_app("water").run(nprocs=4, crash_rate=0.01, crash_seed=7)
    assert a.crash_stats == b.crash_stats
    assert a.runtime_cycles == b.runtime_cycles
    assert _report_lines(a) == _report_lines(b)
    assert [str(e) for e in a.unverifiable] == [str(e) for e in b.unverifiable]


def test_crash_at_kills_named_pid_at_named_barrier():
    res = get_app("sor").run(nprocs=4, crash_at=((2, 1),), checkpoint=True)
    cs = res.crash_stats
    assert cs.crashes == 1
    assert cs.by_kind == {"barrier": 1}
    assert cs.recoveries_from_checkpoint == 1


def test_crash_at_master_rejected():
    with pytest.raises(ValueError, match="master"):
        get_app("sor").config(nprocs=4, crash_at=((0, 1),))


# ---------------------------------------------------------------------- #
# Crashes disabled (default): byte-identical artifacts.
# ---------------------------------------------------------------------- #
def test_default_run_has_zero_crash_surface(tsp_free):
    assert tsp_free.crash_stats == CrashStats()
    assert tsp_free.unverifiable == []
    ledger = tsp_free.aggregate_ledger()
    assert ledger.totals.get(CostCategory.RECOVERY, 0.0) == 0.0


def test_explicit_zero_rate_identical_to_default(tsp_free):
    res = get_app("tsp").run(nprocs=4, crash_rate=0.0, crash_seed=99)
    assert res.runtime_cycles == tsp_free.runtime_cycles
    assert _report_lines(res) == _report_lines(tsp_free)
    assert res.traffic.total_messages == tsp_free.traffic.total_messages


# ---------------------------------------------------------------------- #
# Fail-stop baseline (recovery disabled).
# ---------------------------------------------------------------------- #
def test_fail_stop_crash_deadlocks_survivors():
    with pytest.raises(DeadlockError) as exc_info:
        get_app("water").run(nprocs=4, crash_rate=0.01, crash_seed=7,
                             crash_recovery=False)
    err = exc_info.value
    assert err.crashed  # names the fail-stop node(s)
    assert "unrecovered crash" in str(err)
