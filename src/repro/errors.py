"""Exception hierarchy for the repro package.

All errors raised by the simulator, the DSM substrate, the instrumentation
toolchain and the race detector derive from :class:`ReproError` so that
callers can catch everything from this package with a single clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The deterministic execution engine reached an illegal state."""


class DeadlockError(SimulationError):
    """Every live simulated process is blocked and no message is in flight.

    ``crashed`` lists processes that died fail-stop (``NodeCrashed`` with
    recovery disabled) before the deadlock — the usual culprits when the
    blocked processes are waiting at a barrier the dead node will never
    reach.
    """

    def __init__(self, blocked: dict, crashed=()):
        self.blocked = dict(blocked)
        self.crashed = tuple(sorted(crashed))
        detail = ", ".join(f"P{pid}: {why}" for pid, why in sorted(blocked.items()))
        msg = f"deadlock: all live processes blocked ({detail})"
        if self.crashed:
            dead = ", ".join(f"P{pid}" for pid in self.crashed)
            msg += f" after unrecovered crash of {dead}"
        super().__init__(msg)


class ProcessFailure(SimulationError):
    """A simulated process raised an uncaught exception.

    The original exception is preserved as ``__cause__`` and in
    :attr:`original`.
    """

    def __init__(self, pid: int, original: BaseException):
        self.pid = pid
        self.original = original
        super().__init__(f"process P{pid} failed: {original!r}")


class NetworkError(ReproError):
    """Illegal use of the simulated transport."""


class MessageTooLargeError(NetworkError):
    """A message exceeded the transport's maximum datagram size.

    The paper (§5.3) notes that read notices pushed CVM messages up against
    system maximums; we model the same limit explicitly.
    """

    def __init__(self, size: int, limit: int, tag: str):
        self.size = size
        self.limit = limit
        self.tag = tag
        super().__init__(
            f"message {tag!r} of {size} bytes exceeds transport limit of {limit} bytes"
        )


class RetryExhaustedError(NetworkError):
    """The reliable channel gave up on a fragment after its retry budget.

    Carries enough context for callers to degrade gracefully — the race
    detector turns an exhausted bitmap-round fetch into an explicit
    page-granularity report instead of silently dropping the check entry.
    """

    def __init__(self, tag: str, src: int, dst: int, seqno: int,
                 fragment: int, attempts: int):
        self.tag = tag
        self.src = src
        self.dst = dst
        self.seqno = seqno
        self.fragment = fragment
        self.attempts = attempts
        super().__init__(
            f"message {tag!r} P{src}->P{dst} seq {seqno} fragment {fragment}: "
            f"gave up after {attempts} attempts")


class NodeCrashed(ReproError):
    """A simulated node died at an injected crash point.

    With crash *recovery* enabled (the default when crashes are configured)
    this exception is never raised: the crash is absorbed by the
    checkpoint/recovery protocol and only costs virtual time (and, without
    checkpoints, detection metadata).  With ``crash_recovery=False`` the
    crash is fail-stop: the exception unwinds the simulated process, the
    scheduler parks it in ``ProcState.CRASHED``, and processes that later
    wait on it deadlock — reproducing the fragility that motivated the
    crash-tolerance layer.
    """

    def __init__(self, pid: int, kind: str, at_cycles: float):
        self.pid = pid
        self.kind = kind
        self.at_cycles = at_cycles
        super().__init__(
            f"node P{pid} crashed at {kind} (virtual cycle {at_cycles:.0f})")


class DsmError(ReproError):
    """Illegal use of the DSM substrate (bad address, protocol violation...)."""


class SegmentationFault(DsmError):
    """An application accessed an address outside any allocated block."""

    def __init__(self, pid: int, addr: int, why: str = "unmapped address"):
        self.pid = pid
        self.addr = addr
        super().__init__(f"P{pid}: segmentation fault at word address {addr} ({why})")


class SynchronizationError(DsmError):
    """Misuse of locks or barriers (e.g. releasing a lock not held)."""


class AllocationError(DsmError):
    """The shared segment has no room for a requested allocation."""


class SegmentExhausted(AllocationError):
    """No hole of the segment fits: ``segment_words`` is too small."""


class CheckpointError(DsmError):
    """A node checkpoint could not be written, read, or restored."""


class InstrumentationError(ReproError):
    """The mini-ISA toolchain rejected its input."""


class CompileError(InstrumentationError):
    """The kernel DSL compiler rejected a source program."""


class LinkError(InstrumentationError):
    """The linker could not resolve an object file or symbol."""


class ReplayError(ReproError):
    """Replay diverged from the recorded synchronization order."""


class ConfigError(DsmError, ValueError):
    """A configuration combination the system cannot honor.

    Subclasses :class:`ValueError` so that callers validating
    :class:`~repro.dsm.config.DsmConfig` fields with a broad
    ``except ValueError`` keep working; new rejection paths (the
    two-phase record/detect-offline mode) raise this so the message can
    name the offending flags explicitly.
    """


class TraceError(ReproError):
    """A synchronization-order trace file could not be written, parsed,
    or validated (torn frame, hash mismatch, schema drift).  Distinct
    from :class:`ReplayError`, which signals a *divergence* during an
    otherwise well-formed replay."""


class DeadlineExceeded(ReproError):
    """A run blew through its wall-clock deadline (``--deadline``).

    Raised from ``Scheduler.run()``, so the simulation unwinds
    cleanly instead of hanging forever; the CLI maps it to exit code 4 and
    the fleet supervisor classifies it as a retryable timeout.  Purely a
    wall-clock guard: a run that finishes under its deadline is
    byte-identical to one with no deadline at all.
    """

    def __init__(self, deadline_seconds: float, elapsed_seconds: float,
                 switches: int):
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds
        self.switches = switches
        super().__init__(
            f"wall-clock deadline of {deadline_seconds:g}s exceeded "
            f"({elapsed_seconds:.2f}s elapsed, {switches} context "
            f"switches); the run was aborted")


class FleetError(ReproError):
    """Illegal use of the fleet service layer (spool state conflicts,
    malformed job specs, journal misuse)."""


class AdmissionError(FleetError):
    """The fleet refused a job submission — the bounded queue is full.

    This is the backpressure signal: callers should retry later or drain
    completed work first, not treat it as a crash.
    """

    def __init__(self, job_id: str, limit: int):
        self.job_id = job_id
        self.limit = limit
        super().__init__(
            f"job {job_id!r} rejected: the fleet queue is at its "
            f"admission limit of {limit} queued job(s); retry after the "
            f"backlog drains (backpressure, not a failure)")
