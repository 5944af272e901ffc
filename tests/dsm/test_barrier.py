"""Barrier semantics: epochs, clock reconciliation, interval structure."""

from tests.helpers import run_app, run_app_with_system


def test_barrier_orders_all_accesses():
    """Writes before a barrier are never racy with reads after it."""
    def app(env):
        x = env.malloc(16, name="x")
        env.store(x + env.pid, env.pid)
        env.barrier()
        total = sum(env.load(x + p) for p in range(env.nprocs))
        env.barrier()
        return total

    res = run_app(app, nprocs=4)
    assert res.results == [0 + 1 + 2 + 3] * 4
    # x+0..3 written by different procs on one page: concurrent intervals
    # with page overlap (false sharing), but disjoint words: NO race.
    assert res.races == []


def test_barrier_only_app_has_two_intervals_per_barrier():
    """Table 1: barrier-only applications create exactly two interval
    structures per process per barrier."""
    def app(env):
        x = env.malloc(4, name="x")
        for _ in range(5):
            env.store(x + env.pid % 4, env.pid)
            env.barrier()

    res = run_app(app, nprocs=4)
    assert res.intervals_per_barrier == 2.0


def test_barrier_reconciles_clocks():
    def app(env):
        env.compute(1000 * (env.pid + 1))  # asymmetric work
        env.barrier()
        return env.pid

    system, res = run_app_with_system(app, nprocs=4)
    # After the final barrier everyone's clock has been advanced to at
    # least the slowest process's compute time: the barrier release
    # carried the laggard's arrival time to everyone.
    slowest_work = 4000 * system.config.cost_model.compute_unit
    clocks = [n.clock.now for n in system.nodes]
    assert all(c >= slowest_work for c in clocks)


def test_epoch_advances_per_barrier():
    def app(env):
        env.barrier()
        env.barrier()
        env.barrier()

    system, res = run_app_with_system(app, nprocs=2)
    assert res.metrics["dsm.sync.barriers"] == 4  # 3 explicit + final implicit
    assert system.sync.barrier_state.generation == 4


def test_interval_store_garbage_collected():
    """Checked epochs are discarded (§6.4: trace information is dropped
    once checked) — the store does not grow with barrier count."""
    def app(env):
        x = env.malloc(4, name="x")
        for _ in range(10):
            env.store(x + env.pid % 4, 1)
            env.barrier()

    system, _res = run_app_with_system(app, nprocs=2)
    # Only the last epoch's stragglers may remain.
    assert system.store.live_records() <= 3 * system.config.nprocs


def test_single_process_barrier_trivial():
    def app(env):
        env.barrier()
        env.barrier()
        return "ok"

    res = run_app(app, nprocs=1)
    assert res.results == ["ok"]


def test_reuse_across_generations_heavy():
    def app(env):
        x = env.malloc(1, name="x")
        for i in range(20):
            if env.pid == i % env.nprocs:
                env.store(x, i)
            env.barrier()
            assert env.load(x) == i
            env.barrier()
        return True

    res = run_app(app, nprocs=3)
    assert all(res.results)
