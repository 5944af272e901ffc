"""Consolidation between barriers (§6.3): detection and GC without
global synchronization for lock-heavy programs."""

import pytest

from tests.helpers import run_app, run_app_with_system


def _lock_heavy_app(env, rounds=12):
    """Many lock intervals between barriers, plus one unsynchronized
    write to provoke a race."""
    x = env.malloc(1, name="counter")
    racy = env.malloc(1, name="racy", page_aligned=True)
    env.barrier()
    for _i in range(rounds):
        with env.locked(1):
            env.store(x, env.load(x) + 1)
    env.store(racy, env.pid)
    env.barrier()
    return env.load(x)


def test_consolidation_retires_interval_records(monkeypatch):
    from repro.dsm.coordinator import CoordinatorRole

    retired = []
    consolidate = CoordinatorRole.consolidate

    def counted(self, pid):
        retired.append(consolidate(self, pid))
        return retired[-1]

    monkeypatch.setattr(CoordinatorRole, "consolidate", counted)
    res = run_app(_lock_heavy_app, nprocs=4, consolidation_interval=6)
    assert res.results == [48] * 4
    # Passes ran between the barriers and retired records mid-epoch.
    assert sum(retired) > 0


def test_consolidation_preserves_race_findings():
    with_cons = run_app(_lock_heavy_app, nprocs=4, consolidation_interval=6)
    without = run_app(_lock_heavy_app, nprocs=4)
    keys_with = {r.key() for r in with_cons.races}
    keys_without = {r.key() for r in without.races}
    # The racy word must be found either way.
    assert any(k[1] is not None for k in keys_with)
    racy_with = {r.addr for r in with_cons.races}
    racy_without = {r.addr for r in without.races}
    assert racy_with == racy_without


def test_consolidation_never_invents_races():
    def clean(env):
        x = env.malloc(1, name="x")
        env.barrier()
        for _ in range(10):
            with env.locked(1):
                env.store(x, env.load(x) + 1)
        env.barrier()

    res = run_app(clean, nprocs=4, consolidation_interval=4)
    assert res.races == []


def test_explicit_consolidate_call():
    from repro.dsm.cvm import CVM
    from tests.helpers import small_config

    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        with env.locked(1):
            env.store(x, 1)
        with env.locked(1):
            env.store(x, 2)
        # Everything so far is ordered for this process; a manual
        # consolidation retires what everyone has already seen.
        retired = env.system.coordinator.consolidate(env.pid)
        env.barrier()
        return retired

    system, res = run_app_with_system(app, nprocs=2)
    assert all(isinstance(r, int) for r in res.results)


def test_consolidation_passes_are_deduplicated(monkeypatch):
    """Each consolidation pass re-runs detection over every live record
    of the epoch, so a race found before a lock loop is a candidate
    again at every pass until the barrier: the commit's dedup must keep
    exactly one report per word and interval pair.  The racy words sit
    at the same offset of two pages, so a dedup group that forgot the
    page would fold them together."""
    from repro.core.detector import RaceDetector

    def app(env):
        psz = env.system.config.page_size_words
        x = env.malloc(1, name="counter")
        racy = env.malloc(2 * psz, name="racy", page_aligned=True)
        env.barrier()
        env.store(racy, env.pid)
        env.store(racy + psz, env.pid)
        for _i in range(12):
            with env.locked(1):
                env.store(x, env.load(x) + 1)
        env.barrier()

    candidates = []
    commit = RaceDetector._commit

    def counted(self, plan, results, items, epoch):
        candidates.extend(r for item in items for r in item.reports)
        return commit(self, plan, results, items, epoch)

    monkeypatch.setattr(RaceDetector, "_commit", counted)
    system, res = run_app_with_system(app, nprocs=4,
                                      consolidation_interval=2)
    keys = [r.key() for r in res.races]
    assert len(candidates) > len(keys)
    assert len(set(keys)) == len(keys)
    assert set(system.detector.seen_keys()) == set(keys)
    without = run_app(app, nprocs=4)
    assert set(keys) == {r.key() for r in without.races}
    racy = system.segment.lookup("racy")
    psz = system.config.page_size_words
    assert {(k[3], k[4][0], k[5][0]) for k in keys} == {
        (addr, p, q) for addr in (racy.addr, racy.addr + psz)
        for p in range(4) for q in range(p + 1, 4)}
