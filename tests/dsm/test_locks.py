"""Lock semantics: mutual exclusion, consistency transfer, errors."""

import pytest

from tests.helpers import run_app, run_app_with_system

from repro.errors import DeadlockError, SynchronizationError


def test_lock_protects_read_modify_write():
    def app(env):
        x = env.malloc(1, name="counter")
        env.barrier()
        for _ in range(5):
            with env.locked(3):
                env.store(x, env.load(x) + 1)
        env.barrier()
        return env.load(x)

    res = run_app(app, nprocs=4)
    assert res.results == [20] * 4
    assert res.races == []  # fully synchronized: no false positives


def test_lock_transfers_latest_values():
    """The acquirer of a lock must see the previous holder's writes even
    without a barrier (consistency data rides the grant)."""
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        if env.pid == 0:
            with env.locked(1):
                env.store(x, 99)
        env.barrier()  # order the two critical sections deterministically
        got = None
        if env.pid == 1:
            with env.locked(1):
                got = env.load(x)
        env.barrier()
        return got

    res = run_app(app, nprocs=2)
    assert res.results[1] == 99


def test_unlock_without_holding_rejected():
    def app(env):
        env.unlock(5)

    with pytest.raises(Exception) as exc:
        run_app(app, nprocs=2)
    assert isinstance(exc.value.original, SynchronizationError)


def test_unlock_of_lock_held_by_other_rejected():
    def app(env):
        if env.pid == 0:
            env.lock(7)
        env.barrier()
        if env.pid == 1:
            env.unlock(7)

    with pytest.raises(Exception) as exc:
        run_app(app, nprocs=2)
    assert isinstance(exc.value.original, SynchronizationError)


def test_self_deadlock_detected():
    def app(env):
        env.lock(1)
        env.lock(1)  # recursive acquire is not supported: blocks forever

    with pytest.raises(DeadlockError):
        run_app(app, nprocs=1)


def test_cross_deadlock_detected():
    def app(env):
        if env.pid == 0:
            env.lock(1)
            env.lock(2)
        else:
            env.lock(2)
            env.lock(1)

    with pytest.raises(DeadlockError):
        run_app(app, nprocs=2)


def test_fifo_granting_under_contention():
    def app(env):
        order = env.malloc(16, name="order")
        idx = env.malloc(1, name="idx")
        env.barrier()
        with env.locked(1):
            i = env.load(idx)
            env.store(order + i, env.pid)
            env.store(idx, i + 1)
        env.barrier()
        return env.load_range(order, env.nprocs)

    res = run_app(app, nprocs=4)
    got = res.results[0][:4]
    assert sorted(got) == [0, 1, 2, 3]
    # Every process agrees on the order (coherence through the barrier).
    assert all(r[:4] == got for r in res.results)


def test_lock_acquire_counts():
    system, res = run_app_with_system(_locking_app, nprocs=3)
    # 3 procs x 2 acquires each.
    assert res.metrics["dsm.sync.lock_acquires"] == 6


def _locking_app(env):
    x = env.malloc(1, name="x")
    env.barrier()
    for _ in range(2):
        with env.locked(9):
            env.store(x, env.load(x) + 1)
    env.barrier()


def test_many_locks_independent():
    def app(env):
        blocks = env.malloc(4 * 16, name="blocks", page_aligned=True)
        env.barrier()
        # Each process uses its own lock and block: fully independent.
        with env.locked(env.pid):
            env.store(blocks + env.pid * 16, env.pid)
        env.barrier()
        return env.load(blocks + env.pid * 16)

    res = run_app(app, nprocs=4)
    assert res.results == [0, 1, 2, 3]
    assert res.races == []
