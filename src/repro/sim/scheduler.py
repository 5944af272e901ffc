"""Token-passing deterministic scheduler.

Simulated processes run on OS threads, but at most one ever executes: a
single *token* is handed directly from thread to thread.  Processes give the
token up at explicit yield points — the DSM substrate yields at
synchronization operations and page faults — and the thread giving it up
asks the scheduling policy who runs next and wakes exactly that thread.
Every thread parks on a lock of its own, so a switch costs one wake-up (none
when the yielder is picked again).  The thread that called
:meth:`Scheduler.run` parks until the run is over or must be aborted.
Given the same policy and seed, an execution is fully reproducible.

A switch also costs the host one OS context switch.  Each process thread
puts itself under ``SCHED_BATCH`` when it starts, and the kernel never
lets a batch thread it wakes preempt the thread that woke it.  So the
thread that released the next one's lock carries on into its own
``acquire()``, which drops the GIL, and only then does the kernel switch
to the woken thread, which finds the GIL free.  Under the default policy
the woken thread preempted its waker, found the GIL still held and slept
again: two to three context switches per switch.  Where the platform has
no ``SCHED_BATCH`` or refuses it, the threads keep the policy they were
started with; nothing else changes.  The :meth:`Scheduler.run` caller's
own policy is never touched.

The threads are pooled: a worker that has run one process to its end
parks, holding nothing of the run, until a later run hands it another.
A run starts a new thread only when no worker is parked, so the pool
grows to the most processes this OS process ever ran at once and no
further, and repeated runs neither pay for thread starts nor hand each
new thread a fresh malloc arena.

This design lets application code (FFT, SOR, TSP, Water...) be written as
ordinary Python functions while the simulation retains complete control over
interleaving, which is what makes race *occurrence* deterministic and the
experiments repeatable.
"""

from __future__ import annotations

import enum
import os
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import (DeadlineExceeded, DeadlockError, NodeCrashed,
                          ProcessFailure, SimulationError)
from repro.sim.clock import VirtualClock
from repro.sim.policy import RoundRobinPolicy, SchedulingPolicy


class ProcState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    #: Terminal fail-stop state: the process died at an injected crash
    #: point (:class:`~repro.errors.NodeCrashed`) and nothing will recover
    #: it.  Unlike DONE it marks the run as degraded: processes later
    #: blocking on the dead one deadlock, and the deadlock report names it.
    CRASHED = "crashed"


#: Seconds :meth:`Scheduler.run` waits for each process to unwind.
_JOIN_TIMEOUT = 5.0

#: Name of a pooled worker thread while it runs no process.
_IDLE_NAME = "pooled-sim-worker"


def _new_gate() -> Any:
    """A lock created held: its one owner parks in ``acquire()`` and any
    other thread wakes it with ``release()``.  A wake-up that comes before
    the park is not lost — the ``acquire()`` then returns at once."""
    gate = threading.Lock()
    gate.acquire()
    return gate


def _clear_frames(exc: Optional[BaseException]) -> None:
    """Clear the locals of the finished frames the traceback of ``exc``
    keeps — its own and those they were called from, up to the thread's
    first — and do the same for the exceptions it was raised from or
    while handling."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        tb = exc.__traceback__
        if tb is not None:
            traceback.clear_frames(tb)
            frame = tb.tb_frame.f_back
            while frame is not None:
                try:
                    frame.clear()
                except RuntimeError:  # still executing
                    break
                frame = frame.f_back
        exc = exc.__cause__ or exc.__context__


def _caller_cpus() -> Optional[Set[int]]:
    """The calling thread's CPU affinity, or ``None`` where the platform
    cannot report it."""
    try:
        return os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return None


class _Worker:
    """One pooled OS thread, under ``SCHED_BATCH`` where the platform
    allows it.  It parks on ``wake`` until handed a ``job`` — a scheduler,
    the process to run and the CPUs to run it on — runs it, lets go of it
    and releases ``done``.  Woken with no job, it exits."""

    def __init__(self) -> None:
        self.job: Optional[tuple] = None
        self.wake = _new_gate()
        self.done = _new_gate()
        self.thread = threading.Thread(target=self._loop, name=_IDLE_NAME,
                                       daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        # A thread a handoff wakes must not preempt the one that woke it
        # (see the module docstring).
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):  # no such policy, or refused
            pass
        while True:
            self.wake.acquire()
            if self.job is None:
                return
            try:
                self._serve()
            except BaseException:  # noqa: BLE001 - run() waits on done
                traceback.print_exc()
            self.thread.name = _IDLE_NAME
            self.done.release()

    def _serve(self) -> None:
        # The job's references live in this frame only, which is gone
        # by the time the worker parks again.
        sched, proc, cpus = self.job
        self.job = None
        if cpus is not None:
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:  # a CPU of the caller's went offline since
                pass
        sched._thread_main(proc)


#: Parked workers, shared by every scheduler of this OS process.
_idle: List[_Worker] = []


def _forget_pool() -> None:
    """In a forked child the pooled threads do not exist."""
    _idle.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class SimProcess:
    """One simulated process: a function plus its state and clock."""

    def __init__(self, pid: int, fn: Callable[..., Any], args: tuple, name: str):
        self.pid = pid
        self.fn = fn
        self.args = args
        self.name = name
        self.state = ProcState.NEW
        self.block_reason: Optional[str] = None
        self.clock = VirtualClock()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: Where this process's thread parks while it lacks the token.
        self.gate = _new_gate()
        #: Number of times this process passed a yield point.
        self.yields = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimProcess(pid={self.pid}, state={self.state.value})"


class Scheduler:
    """Runs a set of :class:`SimProcess` to completion, one at a time.

    Usage::

        sched = Scheduler()
        for pid in range(8):
            sched.spawn(worker, pid)
        sched.run()

    Process code interacts with the scheduler through
    :meth:`yield_control`, :meth:`block` and :meth:`unblock`; the DSM layer
    wraps these so applications never call them directly.
    """

    def __init__(self, policy: Optional[SchedulingPolicy] = None,
                 max_switches: int = 50_000_000,
                 deadline_seconds: Optional[float] = None):
        self.policy = policy or RoundRobinPolicy()
        self.max_switches = max_switches
        #: Wall-clock budget for the whole run (``--deadline``); ``None``
        #: disables the guard.  Checked in the dispatch step; the abort is
        #: handed to the :meth:`run` caller, which raises it, and the
        #: process threads unwind quietly via the shutdown path.
        self.deadline_seconds = deadline_seconds
        self.processes: Dict[int, SimProcess] = {}
        self.switches = 0
        #: Pids in state READY, kept current at every state transition so
        #: the per-access "is anyone else runnable" checks are O(1).
        self._ready: Set[int] = set()
        #: Pid holding the token; ``None`` while the run() caller has it.
        self._token: Optional[int] = None
        self._last: Optional[int] = None  # previous pick, for the policy
        self._started_at = 0.0
        self._run_gate = _new_gate()  # the run() caller parks here
        #: What run() must raise once the token comes back to it.
        self._verdict: Optional[BaseException] = None
        self._shutdown = False
        self._started = False

    # ------------------------------------------------------------------ #
    # The run() caller's side.
    # ------------------------------------------------------------------ #
    def spawn(self, fn: Callable[..., Any], *args: Any,
              name: Optional[str] = None) -> SimProcess:
        """Register a new process; it starts running when :meth:`run` is
        called.  Spawning after :meth:`run` has begun is not supported."""
        if self._started:
            raise SimulationError("cannot spawn after run() has started")
        pid = len(self.processes)
        proc = SimProcess(pid, fn, args, name or f"P{pid}")
        self.processes[pid] = proc
        return proc

    def run(self) -> None:
        """Execute all spawned processes to completion.

        Raises :class:`ProcessFailure` if any process raises, and
        :class:`DeadlockError` if all live processes block forever.  Every
        process has unwound and its worker is parked again by the time
        this returns or raises (a worker that outlives ``_JOIN_TIMEOUT``
        is left to finish and is never reused).  Each process runs under
        the caller's CPU affinity.
        """
        if self._started:
            raise SimulationError("run() may only be called once")
        self._started = True
        cpus = _caller_cpus()
        workers: List[_Worker] = []
        try:
            for proc in self.processes.values():
                proc.state = ProcState.READY
                try:
                    worker = _idle.pop()
                except IndexError:
                    worker = _Worker()
                worker.thread.name = f"sim-{proc.name}"
                worker.job = (self, proc, cpus)
                worker.wake.release()
                workers.append(worker)
            self._ready.update(self.processes)
            self._started_at = time.monotonic()
            self._pass_token(None)
            self._run_gate.acquire()  # until the run is over or aborted
            if self._verdict is not None:
                raise self._verdict
        finally:
            # Unpark the processes an abort left waiting, one at a time, so
            # they unwind through application ``finally`` blocks neither
            # concurrently with each other nor with the caller.
            self._shutdown = True
            for proc, worker in zip(self.processes.values(), workers):
                proc.gate.release()
                if worker.done.acquire(timeout=_JOIN_TIMEOUT):
                    _idle.append(worker)
                else:
                    worker.wake.release()  # exits once its job is over
            # The exception raised here keeps its traceback, whose frames
            # hold this scheduler (and the caller's system): kept as the
            # verdict too, it would make the failed run one reference
            # cycle.  So would a process error's traceback, whose frames
            # hold the process function's owner; the processes are done,
            # so clear those frames' locals (the printable traceback stays).
            self._verdict = None
            for proc in self.processes.values():
                _clear_frames(proc.error)

    def _pass_token(self, me: Optional[SimProcess]) -> bool:
        """The one dispatch step, run by whichever thread is giving the
        token up (``me``; ``None`` for the :meth:`run` caller or a process
        that has finished): wake exactly the thread that runs next.  That
        is the run() caller when nothing is left to run or the run must be
        aborted.  Returns True if ``me`` was picked again and keeps going.
        """
        try:
            nxt = self._pick()
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            # A failing policy must not kill the thread that holds the
            # token: run() would then wait for ever.
            self._verdict, nxt = exc, None
        if nxt is None:
            self._token = None
            self._run_gate.release()
            return False
        self._ready.remove(nxt.pid)
        nxt.state = ProcState.RUNNING
        self._token = nxt.pid
        if nxt is me:
            return True
        nxt.gate.release()
        return False

    def _pick(self) -> Optional[SimProcess]:
        """The process to run next, or ``None`` to end the run — leaving in
        ``_verdict`` the exception run() is to raise, if any."""
        if self._verdict is not None:  # a process failed
            return None
        if self.deadline_seconds is not None and self.switches % 256 == 0:
            elapsed = time.monotonic() - self._started_at
            if elapsed > self.deadline_seconds:
                self._verdict = DeadlineExceeded(self.deadline_seconds,
                                                 elapsed, self.switches)
                return None
        if not self._ready:
            blocked = {p.pid: p.block_reason or "?"
                       for p in self.processes.values()
                       if p.state is ProcState.BLOCKED}
            if blocked:
                self._verdict = DeadlockError(blocked,
                                              crashed=self.crashed_pids())
            return None  # else everything DONE (or fail-stop CRASHED)
        self.switches += 1
        if self.switches > self.max_switches:
            self._verdict = SimulationError(
                f"exceeded max_switches={self.max_switches}; "
                "likely livelock")
            return None
        self._last = self.policy.pick(sorted(self._ready), self._last)
        return self.processes[self._last]

    # ------------------------------------------------------------------ #
    # Process side (called from process threads, which hold the token).
    # ------------------------------------------------------------------ #
    def current(self) -> Optional[int]:
        """Pid of the process currently holding the token (None if the
        :meth:`run` caller holds it)."""
        return self._token

    def yield_control(self, pid: int) -> None:
        """Voluntary preemption point.

        Returns immediately when no other process is ready — the common
        fast path that keeps per-access overhead low.
        """
        proc = self._require_running(pid)
        proc.yields += 1
        if not self._ready:
            return
        proc.state = ProcState.READY
        self._ready.add(pid)
        self._hand_off(proc)

    def block(self, pid: int, reason: str) -> None:
        """Block the calling process until another process calls
        :meth:`unblock` on it.  ``reason`` is reported on deadlock."""
        proc = self._require_running(pid)
        proc.state = ProcState.BLOCKED
        proc.block_reason = reason
        self._hand_off(proc)
        proc.block_reason = None

    def others_ready(self, pid: int) -> bool:
        """True if any process other than ``pid`` is currently runnable —
        used by spin-style waits to detect that yielding cannot make
        progress."""
        return len(self._ready) > (pid in self._ready)

    def unblock(self, pid: int) -> None:
        """Make a blocked process runnable again (does not transfer control).

        Safe to call on an already-runnable process; that is a no-op, which
        simplifies broadcast wakeups (e.g. barrier releases).
        """
        proc = self.processes[pid]
        if proc.state is ProcState.BLOCKED:
            proc.state = ProcState.READY
            self._ready.add(pid)

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _require_running(self, pid: int) -> SimProcess:
        proc = self.processes.get(pid)
        if proc is None:
            raise SimulationError(f"unknown pid {pid}")
        if self._token != pid:
            raise SimulationError(
                f"P{pid} called into the scheduler without holding the token")
        return proc

    def _hand_off(self, proc: SimProcess) -> None:
        """Give the token up and sleep until rescheduled."""
        if self._pass_token(proc):
            return
        proc.gate.acquire()
        if self._shutdown:
            raise SystemExit  # unwind quietly after a failure

    def _thread_main(self, proc: SimProcess) -> None:
        try:
            self._run_process(proc)
        finally:
            # The function is typically a bound method of whatever owns
            # this scheduler: kept past the process's end, it would tie
            # the owner and everything it holds into one reference cycle.
            proc.fn = proc.args = None

    def _run_process(self, proc: SimProcess) -> None:
        proc.gate.acquire()  # wait for the first dispatch
        if self._shutdown:
            return
        try:
            proc.result = proc.fn(*proc.args)
        except SystemExit:  # shutdown unwind
            pass
        except BaseException as exc:  # noqa: BLE001 - reported as ProcessFailure
            proc.error = exc
        if self._shutdown:
            return  # run() is already raising, and waits for this process
        if isinstance(proc.error, NodeCrashed):
            # A fail-stop crash is not a program bug: park the process in
            # the terminal CRASHED state and keep scheduling the survivors.
            # If any of them later waits on the dead node the run ends in
            # a DeadlockError that names the crash.
            proc.state = ProcState.CRASHED
            proc.error = None
        else:
            proc.state = ProcState.DONE
            if proc.error is not None:
                self._verdict = ProcessFailure(proc.pid, proc.error)
                self._verdict.__cause__ = proc.error
        self._pass_token(None)

    # ------------------------------------------------------------------ #
    # Introspection used by the harness and tests.
    # ------------------------------------------------------------------ #
    def clocks(self) -> List[VirtualClock]:
        """Virtual clocks of all processes, in pid order."""
        return [self.processes[pid].clock for pid in sorted(self.processes)]

    def results(self) -> List[Any]:
        """Return values of all process functions, in pid order."""
        return [self.processes[pid].result for pid in sorted(self.processes)]

    def crashed_pids(self) -> List[int]:
        """Pids of processes that died fail-stop, in pid order."""
        return sorted(pid for pid, p in self.processes.items()
                      if p.state is ProcState.CRASHED)
