"""Direct token handoff: the interleaving is pinned, no wake-up is lost,
aborts surface on the ``run()`` caller's thread, and no ``sim-*`` thread
outlives ``run()``."""

import sys
import threading
import time

import pytest

from repro.errors import (DeadlineExceeded, DeadlockError, NodeCrashed,
                          ProcessFailure, SimulationError)
from repro.sim.policy import RoundRobinPolicy, SchedulingPolicy, make_policy
from repro.sim.scheduler import ProcState, Scheduler


def assert_ready_set_matches_scan(sched):
    """The incrementally kept ready set equals a scan of process states."""
    scan = {p.pid for p in sched.processes.values()
            if p.state is ProcState.READY}
    assert sched._ready == scan
    for pid in sched.processes:
        assert sched.others_ready(pid) == bool(scan - {pid})


class RecordingPolicy(SchedulingPolicy):
    """Delegates to ``inner``; logs every ``pick`` with its arguments and
    the thread that made it, and checks the ready set on the way."""

    def __init__(self, inner):
        self.inner = inner
        self.sched = None  # set by recorded_scheduler
        self.calls = []
        self.threads = []

    def pick(self, ready, last):
        assert_ready_set_matches_scan(self.sched)
        assert list(ready) == sorted(self.sched._ready)
        pid = self.inner.pick(ready, last)
        self.calls.append((tuple(ready), last, pid))
        self.threads.append(threading.current_thread().name)
        return pid


def recorded_scheduler(inner, **kwargs):
    policy = RecordingPolicy(inner)
    policy.sched = sched = Scheduler(policy=policy, **kwargs)
    return sched, policy


def sim_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("sim-")]


def run_bounded(sched, seconds=120.0):
    """``sched.run()`` on a helper thread, so that a lost wake-up fails
    the test instead of hanging the suite."""
    outcome = []

    def target():
        try:
            sched.run()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome.append(exc)

    runner = threading.Thread(target=target, name="run-caller", daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "run() did not finish: lost wake-up?"
    if outcome:
        raise outcome[0]


# ---------------------------------------------------------------------- #
# (a) Golden interleaving, captured on the Condition-based scheduler.
# ---------------------------------------------------------------------- #
def golden_program(inner):
    sched, policy = recorded_scheduler(inner)
    go = []

    def waiter(pid):
        sched.yield_control(pid)
        if not go:
            sched.block(pid, "go")
        for _ in range(2):
            assert_ready_set_matches_scan(sched)
            sched.yield_control(pid)

    def waker(pid):
        for _ in range(3):
            sched.yield_control(pid)
        go.append(True)
        sched.unblock(0)
        sched.unblock(1)
        assert_ready_set_matches_scan(sched)
        sched.yield_control(pid)

    def crasher(pid):
        sched.yield_control(pid)
        raise NodeCrashed(pid, "access", 1.0)

    def spinner(pid):
        while not go:
            sched.yield_control(pid)

    for fn in (waiter, waiter, waker, crasher, spinner):
        sched.spawn(fn, len(sched.processes))
    sched.run()
    return sched, policy


GOLDEN_STATES = ["done", "done", "done", "crashed", "done"]

GOLDEN_ROUND_ROBIN = [
    ((0, 1, 2, 3, 4), None, 0), ((0, 1, 2, 3, 4), 0, 1),
    ((0, 1, 2, 3, 4), 1, 2), ((0, 1, 2, 3, 4), 2, 3), ((0, 1, 2, 3, 4), 3, 4),
    ((0, 1, 2, 3, 4), 4, 0), ((1, 2, 3, 4), 0, 1), ((2, 3, 4), 1, 2),
    ((2, 3, 4), 2, 3), ((2, 4), 3, 4), ((2, 4), 4, 2), ((2, 4), 2, 4),
    ((2, 4), 4, 2), ((0, 1, 2, 4), 2, 4), ((0, 1, 2), 4, 0), ((0, 1, 2), 0, 1),
    ((0, 1, 2), 1, 2), ((0, 1), 2, 0), ((0, 1), 0, 1), ((0, 1), 1, 0),
    ((1,), 0, 1)]

GOLDEN_RANDOM_7 = [
    ((0, 1, 2, 3, 4), None, 2), ((0, 1, 2, 3, 4), 2, 1),
    ((0, 1, 2, 3, 4), 1, 3), ((0, 1, 2, 3, 4), 3, 0), ((0, 1, 2, 3, 4), 0, 0),
    ((1, 2, 3, 4), 0, 1), ((2, 3, 4), 1, 3), ((2, 4), 3, 2), ((2, 4), 2, 2),
    ((2, 4), 2, 2), ((0, 1, 2, 4), 2, 0), ((0, 1, 2, 4), 0, 4),
    ((0, 1, 2), 4, 1), ((0, 1, 2), 1, 0), ((0, 1, 2), 0, 0), ((1, 2), 0, 1),
    ((1, 2), 1, 2), ((1,), 2, 1)]


@pytest.mark.parametrize("spec, seed, picks, switches, yields", [
    ("round_robin", 0, GOLDEN_ROUND_ROBIN, 21, [3, 3, 4, 1, 3]),
    ("random", 7, GOLDEN_RANDOM_7, 18, [3, 3, 4, 1, 0]),
])
def test_golden_pick_sequence(spec, seed, picks, switches, yields):
    sched, policy = golden_program(make_policy(spec, seed))
    assert policy.calls == picks
    assert sched.switches == switches
    assert [p.yields for p in sched.processes.values()] == yields
    assert [p.state.value for p in sched.processes.values()] == GOLDEN_STATES
    assert sched.crashed_pids() == [3]
    # The run() caller makes the first pick only; every later dispatch
    # step runs on the thread that gave the token up.
    assert policy.threads[0] == threading.current_thread().name
    assert all(name.startswith("sim-P") for name in policy.threads[1:])


# ---------------------------------------------------------------------- #
# (b) Lost-wake-up stress.
# ---------------------------------------------------------------------- #
NPROCS, NYIELDS = 64, 200


@pytest.mark.parametrize("spec, seed", [("round_robin", 0), ("random", 1),
                                        ("random", 2), ("random", 3)])
def test_many_processes_many_yields_never_lose_a_wakeup(spec, seed):
    sched, policy = recorded_scheduler(make_policy(spec, seed))
    contended = [0]

    def worker(pid):
        for _ in range(NYIELDS):
            # A yield switches exactly when somebody else is runnable.
            contended[0] += sched.others_ready(pid)
            sched.yield_control(pid)

    for pid in range(NPROCS):
        sched.spawn(worker, pid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_bounded(sched)
    finally:
        sys.setswitchinterval(interval)
    # One switch per first dispatch plus one per contended yield.
    assert sched.switches == NPROCS + contended[0] == len(policy.calls)
    if spec == "round_robin":
        assert sched.switches == NPROCS + NPROCS * NYIELDS
    assert [p.yields for p in sched.processes.values()] == [NYIELDS] * NPROCS
    assert all(p.state is ProcState.DONE for p in sched.processes.values())
    assert sim_threads() == []


# ---------------------------------------------------------------------- #
# (c) Aborts detected on a process thread are raised from run(), on the
# caller's thread, and every process thread has unwound by then.
# ---------------------------------------------------------------------- #
def test_deadline_detected_by_a_process_is_raised_from_run():
    sched, policy = recorded_scheduler(RoundRobinPolicy(),
                                       deadline_seconds=0.2)
    unwound = []

    def worker(pid):
        try:
            for step in range(1000):
                if pid == 0 and step == 10:
                    time.sleep(0.25)  # blow the budget mid-run
                sched.yield_control(pid)
        finally:
            unwound.append(pid)

    for pid in range(4):
        sched.spawn(worker, pid)
    with pytest.raises(DeadlineExceeded) as exc_info:
        sched.run()
    err = exc_info.value
    assert err.deadline_seconds == 0.2
    assert err.elapsed_seconds > 0.2
    # The check fires every 256th switch; the first (switch 0) is the run()
    # caller's, so this one was a process thread's.
    assert err.switches == sched.switches == 256
    assert str(err) == str(DeadlineExceeded(0.2, err.elapsed_seconds, 256))
    assert "aborted" in str(err)
    assert len(policy.calls) == 256
    assert sorted(unwound) == [0, 1, 2, 3]
    assert sim_threads() == []


def test_deadlock_detected_by_a_process_is_raised_from_run():
    sched, policy = recorded_scheduler(RoundRobinPolicy())
    unwound = []

    def dies(pid):
        raise NodeCrashed(pid, "barrier", 100.0)

    def waits(pid):
        try:
            sched.yield_control(pid)
            sched.block(pid, f"barrier gen {pid}")
        finally:
            unwound.append(pid)

    sched.spawn(waits, 0)
    sched.spawn(dies, 1)
    sched.spawn(waits, 2)
    with pytest.raises(DeadlockError) as exc_info:
        sched.run()
    err = exc_info.value
    assert err.blocked == {0: "barrier gen 0", 2: "barrier gen 2"}
    assert err.crashed == (1,)
    assert str(err) == str(DeadlockError(err.blocked, crashed=[1]))
    assert policy.threads[-1].startswith("sim-P")
    # Unwound one at a time, in pid order, before run() raised.
    assert unwound == [0, 2]
    assert sched.processes[1].state is ProcState.CRASHED
    assert sim_threads() == []


def test_max_switches_detected_by_a_process_is_raised_from_run():
    sched = Scheduler(max_switches=10)

    def worker(pid):
        while True:
            sched.yield_control(pid)

    sched.spawn(worker, 0)
    sched.spawn(worker, 1)
    with pytest.raises(SimulationError) as exc_info:
        sched.run()
    assert type(exc_info.value) is SimulationError
    assert str(exc_info.value) == "exceeded max_switches=10; likely livelock"
    assert sched.switches == 11
    assert sim_threads() == []


def test_process_failure_is_raised_from_run_after_the_others_unwind():
    sched = Scheduler()
    unwound = []

    def blocker(pid):
        try:
            sched.block(pid, "forever")
        finally:
            unwound.append(pid)

    def boom(pid):
        sched.yield_control(pid)
        raise RuntimeError("die")

    sched.spawn(blocker, 0)
    sched.spawn(boom, 1)
    sched.spawn(blocker, 2)
    with pytest.raises(ProcessFailure) as exc_info:
        sched.run()
    err = exc_info.value
    assert err.pid == 1
    assert isinstance(err.original, RuntimeError)
    assert err.__cause__ is err.original
    assert str(err) == "process P1 failed: RuntimeError('die')"
    assert unwound == [0, 2]
    assert sim_threads() == []


def test_policy_failure_on_a_process_thread_is_raised_from_run():
    class FlakyPolicy(RoundRobinPolicy):
        picks = 0

        def pick(self, ready, last):
            self.picks += 1
            if self.picks == 5:
                raise RuntimeError("policy bug")
            return super().pick(ready, last)

    sched = Scheduler(policy=FlakyPolicy())

    def worker(pid):
        for _ in range(10):
            sched.yield_control(pid)

    for pid in range(3):
        sched.spawn(worker, pid)
    with pytest.raises(RuntimeError, match="policy bug"):
        run_bounded(sched)
    assert sim_threads() == []


def test_unwinding_process_cannot_reenter_the_scheduler():
    """A ``finally`` block that calls back into the scheduler during the
    abort unwind is refused (it has no token) and fails nobody else."""
    sched = Scheduler()

    def blocker(pid):
        try:
            sched.block(pid, "forever")
        finally:
            sched.yield_control(pid)

    sched.spawn(blocker, 0)
    sched.spawn(blocker, 1)
    with pytest.raises(DeadlockError):
        sched.run()
    assert sim_threads() == []
    for proc in sched.processes.values():
        assert isinstance(proc.error, SimulationError)
        assert proc.state is ProcState.BLOCKED


def test_clean_run_leaves_no_thread_behind():
    sched = Scheduler()

    def worker(pid):
        for _ in range(5):
            sched.yield_control(pid)
        return pid

    for pid in range(8):
        sched.spawn(worker, pid)
    sched.run()
    assert sched.results() == list(range(8))
    assert sim_threads() == []


def test_run_with_no_processes_returns():
    sched = Scheduler()
    sched.run()
    assert sched.switches == 0
