"""Deterministic node-crash injection.

PR 2 hardened the *message* layer (drop/duplicate/reorder with a
retransmitting channel); this module hardens the *node* layer.  A
:class:`CrashPlan` describes when simulated processes die — by a uniform
per-event probability, by explicit ``(pid, barrier generation)`` schedule
entries, or both — and a :class:`CrashInjector` turns the plan into
concrete per-event decisions.

Decisions use the same BLAKE2b recipe as :mod:`repro.net.faults`: the fate
of one event is a pure function of ``(crash seed, pid, event kind, event
count)``, where the count is a per-``(pid, kind)`` local counter.  The
crash schedule is therefore a property of each process's own event stream
— the same seed kills the same node at the same access/send/barrier no
matter how the processes interleave, which is what makes chaos sweeps
reproducible and recovered-vs-crash-free report comparisons meaningful.

Three event kinds are instrumented (the points a real fail-stop node can
die with observable consequences for the DSM and the detector):

* ``"access"`` — an instrumented shared access (the analysis routine was
  mid-flight; the open interval's bitmap updates die with the node),
* ``"send"``   — a protocol message send (lock request/grant, event set),
* ``"barrier"`` — a barrier arrival (the node dies at the epoch boundary,
  before its notices reach the master).

Whether the barrier *master* can be killed depends on the failover switch
(:mod:`repro.dsm.coordinator`).  With ``master_failover`` off — the default
— the master runs the detection analysis and the recovery protocol, so
rate-derived hits on it are suppressed and counted
(``CrashStats.master_crashes_suppressed``) and an explicit ``--crash-at
0:g`` is a configuration error.  With ``--master-failover`` on, the
coordinator is an elected, migratable role: the master is crashable like
any other node, the immunity counter stays at zero, and only real
scheduling skips (a node whose crash is still pending recovery,
``CrashStats.pending_crash_skips``) are suppressed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

#: Master-side virtual-time timeout: how long past the last live arrival
#: the barrier master waits before declaring a silent node dead.  Two
#: reliable-channel first-retry timeouts (= four one-way latencies of the
#: default cost model): long enough that a merely-slow message is not
#: mistaken for a death on a fault-free network.
DEFAULT_CRASH_DETECT_TIMEOUT = 36_000.0

#: Survivor-side virtual-time timeout of the coordinator election: how
#: long past the last live barrier arrival the surviving nodes wait for
#: the (dead) coordinator's release before electing a replacement.  Same
#: rationale and default as the death-declaration timeout above — the two
#: overlap rather than stack (``wait_until`` is monotonic).
DEFAULT_ELECTION_TIMEOUT = DEFAULT_CRASH_DETECT_TIMEOUT

#: Event kinds the injector evaluates, in documentation order.
EVENT_KINDS = ("access", "send", "barrier")


def unit_variate(key: str) -> float:
    """Deterministic uniform [0, 1) variate derived from ``key``; inlined
    by :mod:`repro.net.faults` (BLAKE2b is stable across platforms and
    interpreter runs, unlike the builtin ``hash``, salted per process)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def parse_crash_at(specs: Iterable[str]) -> Tuple[Tuple[int, int], ...]:
    """Parse CLI ``--crash-at pid:barrier_gen`` specs into schedule pairs.

    Raises ``ValueError`` on malformed input; range checks against
    ``nprocs`` happen in ``DsmConfig.__post_init__``.
    """
    out = []
    for spec in specs:
        pid_s, sep, gen_s = spec.partition(":")
        if not sep:
            raise ValueError(
                f"bad --crash-at spec {spec!r}: expected PID:BARRIER_GEN")
        try:
            pid, gen = int(pid_s), int(gen_s)
        except ValueError:
            raise ValueError(
                f"bad --crash-at spec {spec!r}: PID and BARRIER_GEN "
                f"must be integers") from None
        if pid < 0 or gen < 0:
            raise ValueError(
                f"bad --crash-at spec {spec!r}: values must be >= 0")
        out.append((pid, gen))
    return tuple(sorted(set(out)))


@dataclass(frozen=True)
class CrashPlan:
    """A complete, seeded crash schedule for one run.

    Attributes:
        rate: Per-event death probability applied at every instrumented
            access, message send and barrier arrival (``--crash-rate``).
        seed: Schedule seed (``--crash-seed``); the entire rate-derived
            schedule is a deterministic function of it, independent of the
            scheduling seed and the network fault seed.
        at: Explicit schedule entries ``(pid, barrier_gen)``: the node dies
            at its arrival to that barrier generation (``--crash-at``).
    """

    rate: float = 0.0
    seed: int = 0
    at: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"crash rate must be in [0, 1): {self.rate}")

    @property
    def enabled(self) -> bool:
        return self.rate > 0 or bool(self.at)


class CrashInjector:
    """Turns a :class:`CrashPlan` into per-event crash decisions.

    Each process advances its own per-kind event counter; the decision for
    event ``n`` of kind ``k`` on process ``p`` is
    ``blake2b(f"crash|{seed}:{p}:{k}:{n}") < rate`` — reproducible from
    the plan alone.
    """

    def __init__(self, plan: CrashPlan):
        self.plan = plan
        self._counts: Dict[Tuple[int, str], int] = {}
        self._at: FrozenSet[Tuple[int, int]] = frozenset(plan.at)

    def decide(self, pid: int, kind: str) -> bool:
        """Fate of one event: does process ``pid`` die here?"""
        key = (pid, kind)
        count = self._counts.get(key, 0)
        self._counts[key] = count + 1
        if self.plan.rate <= 0:
            return False
        ident = f"crash|{self.plan.seed}:{pid}:{kind}:{count}"
        return unit_variate(ident) < self.plan.rate

    def scheduled_at(self, pid: int, generation: int) -> bool:
        """True if the explicit schedule kills ``pid`` at its arrival to
        barrier ``generation``."""
        return (pid, generation) in self._at


@dataclass
class CrashRecord:
    """One pending (not yet recovered) crash of one node."""

    kind: str
    #: The node's virtual clock reading at the crash point.
    time: float
    #: Barrier epoch the node was executing when it died.
    epoch: int


@dataclass
class CrashStats:
    """Crash/recovery counters for one run (all zero when crashes are
    disabled — the default)."""

    #: Crashes actually injected (master suppressions not included).
    crashes: int = 0
    #: Injected crashes by event kind.
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Recoveries that restored the node from a barrier checkpoint
    #: (metadata intact: the recovered run's race report is byte-identical
    #: to the crash-free run's).
    recoveries_from_checkpoint: int = 0
    #: Recoveries with checkpointing off: pages are refetched from their
    #: managers but the node's current-epoch detection metadata is lost.
    recoveries_without_checkpoint: int = 0
    #: Interval records whose bitmaps died with a node (checkpointing off).
    intervals_lost: int = 0
    #: Rate-derived crashes of the barrier master, suppressed because with
    #: ``master_failover`` off the master runs the recovery protocol and
    #: must survive.  Stays at zero once failover makes the master
    #: crashable (the coordinator is then an elected, migratable role).
    master_crashes_suppressed: int = 0
    #: Crash opportunities skipped because the node already carries a
    #: pending, not-yet-recovered crash this epoch — a scheduling skip of
    #: the one-crash-per-epoch rule, distinct from master immunity.
    pending_crash_skips: int = 0
    #: Deaths the barrier master declared after its virtual-time timeout.
    deaths_declared: int = 0
    #: Locks whose static manager pid was declared dead and whose
    #: management (queue, prepared-grant state) was reassigned to the
    #: lowest live pid during recovery/failover.
    locks_migrated: int = 0
    #: Checkpoints written (one per node per barrier when enabled).
    checkpoints_written: int = 0
    #: Total serialized checkpoint bytes written.
    checkpoint_bytes: int = 0

    def record_crash(self, kind: str) -> None:
        self.crashes += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


def plan_from_options(rate: float, seed: int,
                      at: Tuple[Tuple[int, int], ...]) -> Optional[CrashPlan]:
    """Build a plan from scalar config fields; ``None`` when no crash can
    ever fire (the crash layer then stays entirely out of the run)."""
    if rate <= 0 and not at:
        return None
    return CrashPlan(rate=rate, seed=seed, at=tuple(at))
