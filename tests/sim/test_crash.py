"""Crash plans, schedules and the deterministic injector."""

import pytest

from repro.dsm.cvm import int_fields
from repro.sim.crash import (CrashInjector, CrashPlan, CrashRecord,
                             CrashStats, EVENT_KINDS, parse_crash_at,
                             plan_from_options)


# ---------------------------------------------------------------------- #
# parse_crash_at
# ---------------------------------------------------------------------- #
def test_parse_crash_at_basic():
    assert parse_crash_at(["2:1", "1:0"]) == ((1, 0), (2, 1))


def test_parse_crash_at_dedupes():
    assert parse_crash_at(["3:2", "3:2"]) == ((3, 2),)


@pytest.mark.parametrize("spec", ["nope", "1", "1:", ":2", "a:b", "-1:2",
                                  "1:-2"])
def test_parse_crash_at_rejects_malformed(spec):
    with pytest.raises(ValueError):
        parse_crash_at([spec])


# ---------------------------------------------------------------------- #
# CrashPlan
# ---------------------------------------------------------------------- #
def test_plan_rate_validation():
    with pytest.raises(ValueError):
        CrashPlan(rate=1.0)
    with pytest.raises(ValueError):
        CrashPlan(rate=-0.1)


def test_plan_enabled():
    assert not CrashPlan().enabled
    assert CrashPlan(rate=0.5).enabled
    assert CrashPlan(at=((1, 0),)).enabled


def test_plan_from_options_none_when_inert():
    assert plan_from_options(0.0, 123, ()) is None
    plan = plan_from_options(0.25, 9, ((2, 1),))
    assert plan.rate == 0.25 and plan.seed == 9 and plan.at == ((2, 1),)


# ---------------------------------------------------------------------- #
# CrashInjector determinism
# ---------------------------------------------------------------------- #
def _schedule(seed, rate, pids=4, events=200):
    """The full decision stream of one plan, as a set of fatal events."""
    inj = CrashInjector(CrashPlan(rate=rate, seed=seed))
    fatal = set()
    for kind in EVENT_KINDS:
        for pid in range(pids):
            for n in range(events):
                if inj.decide(pid, kind):
                    fatal.add((pid, kind, n))
    return fatal


def test_injector_same_seed_same_schedule():
    assert _schedule(7, 0.02) == _schedule(7, 0.02)


def test_injector_different_seeds_differ():
    # Not guaranteed in principle, overwhelmingly likely at 2400 events.
    assert _schedule(7, 0.02) != _schedule(8, 0.02)


def test_injector_rate_roughly_respected():
    fatal = _schedule(3, 0.05, pids=8, events=500)
    total = 3 * 8 * 500
    assert 0.02 < len(fatal) / total < 0.10


def test_injector_per_pid_streams_independent():
    """P2's fate must not depend on how many events other pids saw —
    the property that makes crash schedules interleaving-independent."""
    a = CrashInjector(CrashPlan(rate=0.05, seed=1))
    b = CrashInjector(CrashPlan(rate=0.05, seed=1))
    # a: interleave pids; b: run P2 alone.
    stream_a = []
    for n in range(300):
        for pid in (0, 1, 2, 3):
            fate = a.decide(pid, "access")
            if pid == 2:
                stream_a.append(fate)
    stream_b = [b.decide(2, "access") for _ in range(300)]
    assert stream_a == stream_b


def test_injector_zero_rate_never_fires_but_counts():
    inj = CrashInjector(CrashPlan(rate=0.0, seed=0, at=((1, 2),)))
    assert not any(inj.decide(1, "access") for _ in range(100))
    assert inj.scheduled_at(1, 2)
    assert not inj.scheduled_at(1, 1)
    assert not inj.scheduled_at(0, 2)


# ---------------------------------------------------------------------- #
# CrashStats
# ---------------------------------------------------------------------- #
def test_crash_stats_counters():
    st = CrashStats()
    st.record_crash("access")
    st.record_crash("access")
    st.record_crash("barrier")
    st.recoveries_from_checkpoint = 2
    st.recoveries_without_checkpoint = 1
    st.locks_migrated = 4
    assert st.crashes == 3
    assert st.by_kind == {"access": 2, "barrier": 1}
    # Every int counter reaches a run's metrics; the per-kind dict stays
    # out of the flat form.
    assert int_fields(st) == {
        "crashes": 3, "recoveries_from_checkpoint": 2,
        "recoveries_without_checkpoint": 1, "intervals_lost": 0,
        "master_crashes_suppressed": 0, "pending_crash_skips": 0,
        "deaths_declared": 0, "locks_migrated": 4,
        "checkpoints_written": 0, "checkpoint_bytes": 0}


def test_crash_record_fields():
    rec = CrashRecord(kind="send", time=123.0, epoch=4)
    assert rec.kind == "send" and rec.time == 123.0 and rec.epoch == 4
