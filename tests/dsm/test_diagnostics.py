"""Protocol and lock diagnostics exposed through RunResult."""

import pytest

from tests.helpers import run_app


def test_protocol_stats_keys_present():
    def app(env):
        x = env.malloc(4, name="x")
        env.barrier()
        env.store(x, env.pid)
        env.barrier()
        env.load(x)

    res = run_app(app, nprocs=2)
    for key in ("read_faults", "write_faults", "soft_faults",
                "invalidations", "ownership_transfers",
                "diffs_created", "diff_words_moved"):
        assert f"dsm.protocol.{key}" in res.metrics
    assert res.metrics["dsm.protocol.write_faults"] >= 1


def test_sw_counts_ownership_transfers():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        if env.pid == 0:
            env.store(x, 1)
        env.barrier()
        if env.pid == 1:
            env.store(x, 2)
        env.barrier()

    res = run_app(app, nprocs=2, protocol="sw")
    assert res.metrics["dsm.protocol.ownership_transfers"] >= 1
    assert res.metrics["dsm.protocol.diffs_created"] == 0


def test_mw_counts_diffs():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        with env.locked(1):
            env.store(x, env.pid + 1)
        env.barrier()

    res = run_app(app, nprocs=2, protocol="mw")
    assert res.metrics["dsm.protocol.diffs_created"] >= 1
    assert res.metrics["dsm.protocol.diff_words_moved"] >= 1
    assert res.metrics["dsm.protocol.ownership_transfers"] == 0


def test_invalidations_counted():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        env.load(x)            # everyone caches the page
        env.barrier()
        if env.pid == 0:
            env.store(x, 9)    # notice at next barrier invalidates copies
        env.barrier()
        env.load(x)

    res = run_app(app, nprocs=4)
    assert res.metrics["dsm.protocol.invalidations"] >= 3


def test_lock_stats_track_contention():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        with env.locked(5):
            env.store(x, env.load(x) + 1)
        env.barrier()

    res = run_app(app, nprocs=4)
    acquires, contended = res.lock_stats[5]
    assert acquires == 4
    assert 0 <= contended < 4


def test_uncontended_private_locks():
    def app(env):
        env.barrier()
        with env.locked(env.pid + 10):
            env.compute(10)
        env.barrier()

    res = run_app(app, nprocs=3)
    for lid in (10, 11, 12):
        acquires, contended = res.lock_stats[lid]
        assert (acquires, contended) == (1, 0)
