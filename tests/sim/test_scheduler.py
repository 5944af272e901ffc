"""Scheduler: determinism, blocking, failure and deadlock handling."""

import time

import pytest

from repro.errors import (DeadlineExceeded, DeadlockError, ProcessFailure,
                          SimulationError)
from repro.sim.policy import RandomPolicy, RoundRobinPolicy
from repro.sim.scheduler import ProcState, Scheduler


def test_runs_all_processes_to_completion():
    sched = Scheduler()
    for i in range(5):
        sched.spawn(lambda k=i: k * 10)
    sched.run()
    assert sched.results() == [0, 10, 20, 30, 40]


def test_yield_round_robin_interleaves():
    sched = Scheduler(policy=RoundRobinPolicy())
    order = []

    def worker(pid):
        for step in range(3):
            order.append((pid, step))
            sched.yield_control(pid)

    for i in range(3):
        sched.spawn(worker, i)
    sched.run()
    # Strict round-robin: steps proceed in lockstep.
    assert order == [(0, 0), (1, 0), (2, 0),
                     (0, 1), (1, 1), (2, 1),
                     (0, 2), (1, 2), (2, 2)]


def test_yield_fast_path_when_alone():
    sched = Scheduler()

    def worker(pid):
        for _ in range(100):
            sched.yield_control(pid)
        return "done"

    sched.spawn(worker, 0)
    sched.run()
    assert sched.results() == ["done"]


def test_block_and_unblock():
    sched = Scheduler()
    events = []

    def waiter(pid):
        events.append("wait")
        sched.block(pid, "test")
        events.append("resumed")

    def waker(pid):
        sched.yield_control(pid)  # let the waiter block first
        events.append("wake")
        sched.unblock(0)

    sched.spawn(waiter, 0)
    sched.spawn(waker, 1)
    sched.run()
    assert events == ["wait", "wake", "resumed"]


def test_unblock_is_idempotent_on_ready_process():
    sched = Scheduler()

    def worker(pid):
        sched.unblock(pid)  # self, already running: no-op
        return pid

    sched.spawn(worker, 0)
    sched.run()
    assert sched.results() == [0]


def test_deadlock_detected():
    sched = Scheduler()

    def stuck(pid):
        sched.block(pid, f"stuck-{pid}")

    sched.spawn(stuck, 0)
    sched.spawn(stuck, 1)
    with pytest.raises(DeadlockError) as exc:
        sched.run()
    assert 0 in exc.value.blocked and 1 in exc.value.blocked


def test_process_failure_propagates_with_cause():
    sched = Scheduler()

    def boom(pid):
        raise ValueError("kapow")

    sched.spawn(boom, 0)
    with pytest.raises(ProcessFailure) as exc:
        sched.run()
    assert exc.value.pid == 0
    assert isinstance(exc.value.original, ValueError)


def test_failure_releases_other_threads():
    sched = Scheduler()

    def blocker(pid):
        sched.block(pid, "forever")

    def boom(pid):
        sched.yield_control(pid)
        raise RuntimeError("die")

    sched.spawn(blocker, 0)
    sched.spawn(boom, 1)
    with pytest.raises(ProcessFailure):
        sched.run()
    # The blocked process's thread must be released (daemon unwind); its
    # state is whatever it was, but run() returned — the key property.


def test_spawn_after_run_rejected():
    sched = Scheduler()
    sched.spawn(lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.spawn(lambda: None)


def test_run_twice_rejected():
    sched = Scheduler()
    sched.spawn(lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.run()


def test_random_policy_deterministic_per_seed():
    def trace_for(seed):
        sched = Scheduler(policy=RandomPolicy(seed))
        order = []

        def worker(pid):
            for _ in range(5):
                order.append(pid)
                sched.yield_control(pid)

        for i in range(4):
            sched.spawn(worker, i)
        sched.run()
        return order

    assert trace_for(7) == trace_for(7)
    assert trace_for(7) != trace_for(8)  # overwhelmingly likely


def test_others_ready():
    sched = Scheduler()
    seen = []

    def worker(pid):
        seen.append((pid, sched.others_ready(pid)))

    sched.spawn(worker, 0)
    sched.spawn(worker, 1)
    sched.run()
    # P0 runs while P1 is still ready; by the time P1 runs, P0 is done.
    assert seen == [(0, True), (1, False)]


def test_scheduler_requires_token_for_calls():
    sched = Scheduler()

    def worker(pid):
        return pid

    sched.spawn(worker, 0)
    # Calling from outside (dispatcher context, no token) must fail.
    with pytest.raises(SimulationError):
        sched.yield_control(0)


def test_clocks_are_per_process():
    sched = Scheduler()

    def worker(pid):
        sched.processes[pid].clock.advance(100 * (pid + 1))

    for i in range(3):
        sched.spawn(worker, i)
    sched.run()
    assert [c.now for c in sched.clocks()] == [100, 200, 300]


def test_max_switches_guards_livelock():
    sched = Scheduler(max_switches=10)

    def worker(pid):
        while True:
            sched.yield_control(pid)

    sched.spawn(worker, 0)
    sched.spawn(worker, 1)
    with pytest.raises((SimulationError, ProcessFailure)):
        sched.run()


# ---------------------------------------------------------------------- #
# A finished process keeps neither its function nor its arguments: the
# function is typically a bound method of the scheduler's owner, and
# holding it would make that owner a reference cycle.
# ---------------------------------------------------------------------- #
def assert_released(sched):
    for proc in sched.processes.values():
        assert proc.fn is None and proc.args is None, proc


def test_normal_run_releases_fn_and_args():
    sched = Scheduler()
    for i in range(3):
        sched.spawn(lambda pid, payload: pid, i, [i])
    sched.run()
    assert sched.results() == [0, 1, 2]
    assert_released(sched)


def test_process_failure_releases_fn_and_args():
    sched = Scheduler()

    def blocker(pid):
        sched.block(pid, "forever")

    def boom(pid):
        sched.yield_control(pid)
        raise RuntimeError("die")

    sched.spawn(blocker, 0)
    sched.spawn(boom, 1)
    with pytest.raises(ProcessFailure):
        sched.run()
    assert_released(sched)


def test_deadlock_releases_fn_and_args():
    sched = Scheduler()

    def stuck(pid):
        sched.block(pid, f"stuck-{pid}")

    sched.spawn(stuck, 0)
    sched.spawn(stuck, 1)
    with pytest.raises(DeadlockError):
        sched.run()
    assert_released(sched)


def test_deadline_abort_releases_fn_and_args():
    sched = Scheduler(deadline_seconds=0.05)

    def worker(pid):
        for step in range(1000):
            if pid == 0 and step == 10:
                time.sleep(0.1)  # blow the budget mid-run
            sched.yield_control(pid)

    for pid in range(4):
        sched.spawn(worker, pid)
    with pytest.raises(DeadlineExceeded):
        sched.run()
    assert_released(sched)
