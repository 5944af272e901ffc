"""Lock-manager death: managed locks migrate to the lowest live pid.

The bug this guards against: the static ``lid % nprocs`` manager
assignment never moved, so a lock whose manager pid crashed left every
later acquirer sending its ``lock_request`` to a silent node — blocked
waiters stranded for the rest of the run.  Recovery now re-homes each
dead manager's locks (queue and prepared-grant state intact) onto the
lowest live pid when the master declares the death, and the runs below
complete with reports byte-identical to the crash-free run.

Manager placement used by these cells: ``tsp``'s BOUND_LOCK (lid 1) is
managed by P1 at 4 procs; ``water``'s GLOBAL_LOCK (lid 99) by P3 at 4
procs; ``queue_racy``'s QUEUE_LOCK (lid 0) by P0 — the initial master,
so killing it exercises migration *through* a coordinator failover.
"""

import pytest

from repro.apps.queue_racy import QueueParams
from repro.apps.registry import get_app
from repro.sim.costmodel import CostCategory


def _report_lines(result):
    return sorted(str(r) for r in result.races)


@pytest.fixture(scope="module")
def tsp_free():
    return get_app("tsp").run(nprocs=4)


def test_lock_manager_crash_migrates_and_matches_crash_free(tsp_free):
    """P1 manages tsp's bound lock; kill it at a barrier and the lock
    must be re-homed (to P0) with checkpoint recovery keeping the race
    report byte-identical."""
    res = get_app("tsp").run(nprocs=4, crash_at=((1, 1),), checkpoint=True)
    assert res.crash_stats.crashes == 1
    assert res.crash_stats.deaths_declared == 1
    assert res.crash_stats.locks_migrated >= 1
    assert _report_lines(res) == _report_lines(tsp_free)
    assert res.detector_stats == tsp_free.detector_stats


def test_non_adjacent_manager_crash_migrates(tsp_free):
    """Same cell at a later generation: migration is not a one-shot."""
    res = get_app("tsp").run(nprocs=4, crash_at=((1, 2),), checkpoint=True)
    assert res.crash_stats.locks_migrated >= 1
    assert _report_lines(res) == _report_lines(tsp_free)


def test_highest_pid_manager_crash_migrates():
    """water's global lock lands on P3 (99 % 4); its death re-homes the
    lock across the whole pid range."""
    spec = get_app("water")
    free = spec.run(nprocs=4)
    res = spec.run(nprocs=4, crash_at=((3, 1),), checkpoint=True)
    assert res.crash_stats.locks_migrated >= 1
    assert _report_lines(res) == _report_lines(free)
    assert res.detector_stats == free.detector_stats


def test_manager_crash_without_checkpoint_completes():
    """Without checkpoints the report legitimately degrades (lost
    bitmaps become unverifiable entries) but the run must still
    *complete* — waiters unstrand through the migrated manager."""
    res = get_app("tsp").run(nprocs=4, crash_at=((1, 1),))
    assert res.crash_stats.locks_migrated >= 1
    assert res.metrics["dsm.sync.barriers"] > 0
    assert res.unverifiable  # degradation is loud, not silent


# ---------------------------------------------------------------------- #
# The ISSUE acceptance cell: kill queue_racy's lock-manager pid (P0,
# also the initial master) mid-contention.
# ---------------------------------------------------------------------- #
def test_queue_racy_lock_manager_crash_mid_contention():
    spec = get_app("queue_racy")
    params = QueueParams(with_sync=True)  # contended QUEUE_LOCK
    free = spec.run(nprocs=3, params=params)
    res = spec.run(nprocs=3, params=params, master_failover=True,
                   crash_at=((0, 2),), checkpoint=True)
    assert res.crash_stats.crashes == 1
    assert res.failover_stats.elections_held == 1
    assert res.crash_stats.locks_migrated == 1
    assert (res.metrics["dsm.sync.lock_acquires"]
            == free.metrics["dsm.sync.lock_acquires"])
    assert _report_lines(res) == _report_lines(free)


def test_migration_handoff_message_priced_under_recovery():
    """When the new manager is not the coordinator, re-homing ships the
    lock state in a ``lock_migrate`` message priced under RECOVERY.  The
    cell: P0 dies first (coordinator fails over to P1), recovers, then
    P3 — the global lock's manager — dies; the lowest live pid is P0
    again, which is no longer the coordinator, so the handoff crosses
    the wire.  Reports stay byte-identical throughout."""
    spec = get_app("water")
    free = spec.run(nprocs=4)
    res = spec.run(nprocs=4, master_failover=True,
                   crash_at=((0, 1), (3, 2)), checkpoint=True)
    assert res.failover_stats.elections_held == 1
    assert res.crash_stats.locks_migrated >= 2
    assert res.traffic.messages_by_tag.get("lock_migrate", 0) > 0
    assert res.aggregate_ledger().totals[CostCategory.RECOVERY] > 0
    assert _report_lines(res) == _report_lines(free)
    # Crash-free runs never migrate:
    assert "lock_migrate" not in free.traffic.messages_by_tag


def test_no_migration_without_manager_death(tsp_free):
    assert tsp_free.crash_stats.locks_migrated == 0
