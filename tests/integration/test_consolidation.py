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


def test_consolidation_retires_interval_records():
    system, res = run_app_with_system(_lock_heavy_app, nprocs=4,
                                      consolidation_interval=6)
    # Records were retired mid-epoch: the store never held the full
    # epoch's interval count at once.
    assert res.results == [48] * 4


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
