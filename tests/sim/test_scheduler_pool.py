"""Pooled process threads: a run takes parked workers, starting a thread
only when none is parked, and hands them back when its processes have
unwound.  Workers are reused, the pool is bounded by the widest run, an
idle worker keeps nothing of a finished run, a worker runs under its
caller's CPU affinity, one that outlives the join timeout is dropped, a
forked child starts from an empty pool, and every worker runs under
``SCHED_BATCH`` — one OS context switch per token handoff — while the
caller keeps its own scheduling policy."""

import gc
import os
import resource
import sys
import threading
import time
import weakref

import pytest

from repro.apps.registry import get_app
from repro.dsm.cvm import CVM
from repro.errors import DeadlineExceeded, DeadlockError, ProcessFailure
from repro.sim import scheduler
from repro.sim.scheduler import Scheduler
from tests.helpers import assert_pool_parked


@pytest.fixture
def empty_pool():
    """Retire every parked worker (each exits when woken with no job)."""
    while scheduler._idle:
        worker = scheduler._idle.pop()
        worker.wake.release()
        worker.thread.join(5.0)
        assert not worker.thread.is_alive()
    yield


def run_threads(nprocs, yields=3):
    """Run ``nprocs`` processes; return the thread each one ran on."""
    sched = Scheduler()
    threads = [None] * nprocs

    def worker(pid):
        threads[pid] = threading.current_thread()
        for _ in range(yields):
            sched.yield_control(pid)

    for pid in range(nprocs):
        sched.spawn(worker, pid)
    sched.run()
    return threads


def test_threads_are_reused_across_runs():
    first = run_threads(8)
    second = run_threads(8)
    assert len({t.ident for t in first}) == 8
    assert {t.ident for t in first} == {t.ident for t in second}
    assert {id(t) for t in first} == {id(t) for t in second}
    assert_pool_parked()


def test_the_pool_holds_the_widest_run(empty_pool):
    for nprocs in (4, 8, 4):
        run_threads(nprocs)
    assert len(scheduler._idle) == 8
    assert_pool_parked()


def test_concurrent_runs_share_the_pool(empty_pool):
    """Runs from several caller threads at once, with a short switch
    interval: a worker handed to two runs, or parked twice, would hang a
    run or show up twice in the pool."""
    callers, runs, nprocs = 4, 10, 8
    finished = []

    def caller():
        for _ in range(runs):
            threads = run_threads(nprocs)
            assert len({id(t) for t in threads}) == nprocs
        finished.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = [threading.Thread(target=caller) for _ in range(callers)]
        for thread in started:
            thread.start()
        for thread in started:
            thread.join(120.0)
            assert not thread.is_alive(), "a run did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert finished == [True] * callers
    assert nprocs <= len(scheduler._idle) <= callers * nprocs
    assert len({id(w) for w in scheduler._idle}) == len(scheduler._idle)
    assert_pool_parked()


def test_a_process_runs_under_its_name_and_an_idle_worker_under_another():
    names = []
    sched = Scheduler()
    for pid in range(3):
        sched.spawn(lambda: names.append(threading.current_thread().name),
                    name=f"N{pid}")
    sched.run()
    assert names == ["sim-N0", "sim-N1", "sim-N2"]
    assert_pool_parked()


# ---------------------------------------------------------------------- #
# A dropped run is freed by reference counting alone: no idle worker
# keeps a job, a frame or a bound method of it.
# ---------------------------------------------------------------------- #
def fails(env, _params):
    env.barrier()
    if env.pid == 1:
        raise ValueError("boom")


def deadlocks(env, _params):
    env.lock(env.pid)
    env.barrier()
    env.lock(1 - env.pid)


def overruns(env, _params):
    for _ in range(10_000):
        env.barrier()


@pytest.mark.parametrize("app, flags, raised", [
    ("fft", {}, None),
    (fails, {}, ProcessFailure),
    (deadlocks, {}, DeadlockError),
    (overruns, dict(deadline_seconds=1e-9), DeadlineExceeded),
], ids=["clean", "process_failure", "deadlock", "deadline"])
def test_a_dropped_run_is_freed(app, flags, raised):
    spec = get_app("fft")
    func, params = (spec.func, spec.default_params) if app == "fft" \
        else (app, None)
    gc.collect()
    gc.disable()
    try:
        system = CVM(spec.config(nprocs=2, **flags))
        alive = weakref.ref(system)
        if raised is None:
            system.run(func, params)
        else:
            with pytest.raises(raised):
                system.run(func, params)
        del system
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert_pool_parked()


# ---------------------------------------------------------------------- #
# Affinity, the join timeout and fork.
# ---------------------------------------------------------------------- #
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least 2 CPUs")
def test_processes_run_under_the_callers_affinity(empty_pool):
    every = os.sched_getaffinity(0)
    one = {min(every)}

    def affinities_from(cpus):
        seen = []

        def caller():
            os.sched_setaffinity(0, cpus)
            sched = Scheduler()
            for pid in range(4):
                sched.spawn(lambda: seen.append(os.sched_getaffinity(0)))
            sched.run()

        thread = threading.Thread(target=caller)
        thread.start()
        thread.join(60.0)
        assert not thread.is_alive()
        return seen

    assert affinities_from(one) == [one] * 4
    assert len(scheduler._idle) == 4
    assert affinities_from(every) == [every] * 4  # the same four workers
    assert affinities_from(one) == [one] * 4
    assert len(scheduler._idle) == 4


def test_a_worker_past_the_join_timeout_is_never_reused(monkeypatch):
    monkeypatch.setattr(scheduler, "_JOIN_TIMEOUT", 0.05)
    slow = []
    release = threading.Event()

    def stuck(pid):
        slow.append(threading.current_thread())
        try:
            sched.block(pid, "forever")
        finally:
            release.wait(10.0)  # unwinds long after run() gave up on it

    sched = Scheduler()
    sched.spawn(stuck, 0)
    with pytest.raises(DeadlockError):
        sched.run()
    dropped = slow[0]
    try:
        assert dropped.is_alive()
        assert all(w.thread is not dropped for w in scheduler._idle)
    finally:
        release.set()
    dropped.join(10.0)
    assert not dropped.is_alive()  # woken with no job, it exited
    assert all(t is not dropped for t in run_threads(8))
    assert_pool_parked()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_on_threads_of_its_own():
    run_threads(4)
    assert scheduler._idle
    pid = os.fork()
    if pid == 0:  # the child: exit at once, whatever happens
        code = 1
        try:
            spec = get_app("sor")
            result = spec.run(nprocs=4)
            code = 0 if result.runtime_cycles > 0 else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's run did not finish")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------- #
# The workers' scheduling policy.
# ---------------------------------------------------------------------- #
def batch_refused():
    """Why a thread cannot put itself under ``SCHED_BATCH`` here, or
    ``None`` when it can (probed on a throwaway thread: the policy is
    per thread)."""
    if not hasattr(os, "SCHED_BATCH"):
        return "the platform has no SCHED_BATCH"
    refused = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError as exc:
            refused.append(f"SCHED_BATCH refused: {exc}")

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return refused[0] if refused else None


needs_batch = pytest.mark.skipif(batch_refused() is not None,
                                 reason=str(batch_refused()))


def run_policies(nprocs):
    """The scheduling policy each process of one CVM run ran under."""
    spec = get_app("fft")
    system = CVM(spec.config(nprocs=nprocs))
    return system.run(lambda env, _params: os.sched_getscheduler(0),
                      None).results


@needs_batch
def test_processes_run_under_sched_batch(empty_pool):
    assert run_policies(4) == [os.SCHED_BATCH] * 4  # new threads
    assert run_policies(4) == [os.SCHED_BATCH] * 4  # the same, reused
    assert_pool_parked()


@needs_batch
def test_the_callers_policy_is_its_own():
    before = os.sched_getscheduler(0)
    assert before != os.SCHED_BATCH
    assert run_policies(4) == [os.SCHED_BATCH] * 4
    assert os.sched_getscheduler(0) == before


@needs_batch
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_on_batch_threads():
    run_threads(4)
    pid = os.fork()
    if pid == 0:  # the child: exit at once, whatever happens
        code = 1
        try:
            code = 0 if run_policies(4) == [os.SCHED_BATCH] * 4 else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's run did not finish")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


@needs_batch
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_a_pinned_switch_costs_one_os_context_switch():
    """Eight processes that only yield, on one CPU: the thread a handoff
    wakes waits until the one that woke it has parked and dropped the
    GIL, so each switch is one OS context switch.  A worker under the
    caller's policy preempts its waker, finds the GIL held and sleeps
    again: 2.8 to 3.1 per switch."""
    counts = []

    def caller():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        run_threads(8, yields=2)  # start the workers outside the count
        sched = Scheduler()

        def proc(pid):
            for _ in range(200):
                sched.yield_control(pid)

        for pid in range(8):
            sched.spawn(proc, pid)
        before = resource.getrusage(resource.RUSAGE_SELF)
        sched.run()
        after = resource.getrusage(resource.RUSAGE_SELF)
        counts.append((after.ru_nvcsw - before.ru_nvcsw
                       + after.ru_nivcsw - before.ru_nivcsw, sched.switches))

    thread = threading.Thread(target=caller)
    thread.start()
    thread.join(60.0)
    assert not thread.is_alive()
    context_switches, switches = counts[0]
    assert switches > 1600
    assert context_switches <= 1.3 * switches
