"""Fleet job model: one detection run as a schedulable unit of work.

A job is (app × config × seed × mode) — exactly what the single-run CLI
executes, but packaged as a canonical-JSON payload so it can sit in a
spool directory, ride the fleet journal, and be handed to a worker
subprocess.  Files holding a job are one :func:`repro.durable.frame` plus a
newline, so a torn submit is detected at ingestion instead of poisoning the
queue.

Priority classes follow the two-phase production story (docs/robustness.md):
``record`` runs are the cheap always-on production traffic and are served
first, ``detect-offline`` replays are the scheduled analysis tier, and
``online`` runs — full inline detection — are the most expensive and yield
to both.  Within a class, jobs run in submission order.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import durable
from repro.dsm.config import DsmConfig
from repro.errors import FleetError

#: Bump when the job payload schema changes incompatibly.
JOB_FORMAT_VERSION = 1

#: Scheduling priority per execution mode; lower runs first.
PRIORITY_CLASSES = {"record": 0, "detect-offline": 1, "online": 2}

#: DsmConfig field names a job's ``overrides`` may carry.  Everything
#: else — and anything non-serializable like ``cost_model`` — is refused
#: at construction, so a malformed submission fails at submit time (or is
#: classified permanently-failed by the worker), never silently ignored.
_CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(DsmConfig)
    if f.name not in ("cost_model", "fault_plan"))

#: Simulated processes one worker slot is sized for; a 32-proc job costs
#: four slots, the 2-4 proc test jobs cost one (see placement.py).
PROCS_PER_SLOT = 8


def frame_payload(payload: Dict[str, Any]) -> str:
    """The frame of a payload's canonical form."""
    return durable.frame(durable.canon(payload))


def parse_framed_payload(framed: str, what: str) -> Dict[str, Any]:
    """Validate a frame and decode its JSON body; raises
    :class:`FleetError` on a torn or corrupt file."""
    body = durable.unframe(framed)
    if body is None:
        raise FleetError(f"{what}: frame torn or corrupt "
                         "(content hash mismatch)")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise FleetError(f"{what}: body unparseable: {exc}")
    if not isinstance(payload, dict):
        raise FleetError(f"{what}: body is not a JSON object")
    return payload


@dataclass
class JobSpec:
    """One schedulable detection job.

    Attributes:
        job_id: Spool-unique id assigned at submission ("job-000007").
        app: Registered application name.
        mode: ``online`` / ``record`` / ``detect-offline`` — also the
            job's priority class.
        nprocs: Simulated processes (drives the slot size).
        seed: Scheduling seed — the sweep axis the aggregate dedups over.
        overrides: Extra :class:`~repro.dsm.config.DsmConfig` fields
            (loss_rate, fault_seed, sharded_detection, trace_file,
            checkpoint_dir...).  Keys are validated here.
        deadline_seconds: Per-job wall-clock budget.  Enforced twice:
            in-run by the scheduler's deadline guard (clean
            ``DeadlineExceeded``, exit code 4) and externally by the
            supervisor, which SIGKILLs a worker that overstays the
            deadline plus a grace period (a hung interpreter can't
            honor the in-run guard).
        max_retries: Retries after transient failures before the job is
            classified permanently-failed.
        max_crashes: Worker crashes (SIGKILL, segfault, hung-and-killed)
            before the job is classified poisoned — the cap that keeps
            one bad config from wedging the fleet.
        chaos: Test-only fault hooks honored by the worker — the fleet's
            own deterministic fault injection, mirroring
            ``repro.net.faults`` / ``repro.sim.crash``:
            ``{"exit_code": N}`` exits with code N before running;
            ``{"hang": true}`` stops heartbeating and sleeps forever
            (exercises hung-worker detection and the poison path).
    """

    job_id: str
    app: str
    mode: str = "online"
    nprocs: int = 4
    seed: int = 0
    overrides: Dict[str, Any] = field(default_factory=dict)
    deadline_seconds: Optional[float] = None
    max_retries: int = 2
    max_crashes: int = 2
    chaos: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in PRIORITY_CLASSES:
            raise FleetError(
                f"job {self.job_id!r}: unknown mode {self.mode!r} "
                f"(expected one of {sorted(PRIORITY_CLASSES)})")
        if self.nprocs < 1:
            raise FleetError(f"job {self.job_id!r}: nprocs must be >= 1")
        if self.max_retries < 0 or self.max_crashes < 1:
            raise FleetError(
                f"job {self.job_id!r}: max_retries must be >= 0 and "
                f"max_crashes >= 1")
        unknown = sorted(set(self.overrides) - _CONFIG_FIELDS)
        if unknown:
            raise FleetError(
                f"job {self.job_id!r}: unknown DsmConfig override(s) "
                f"{unknown}; valid fields are DsmConfig's scalar options")

    @property
    def priority(self) -> int:
        return PRIORITY_CLASSES[self.mode]

    @property
    def slots(self) -> int:
        """Sized-slot footprint: one slot per :data:`PROCS_PER_SLOT`
        simulated processes, rounded up."""
        return max(1, -(-self.nprocs // PROCS_PER_SLOT))

    @property
    def attempts_allowed(self) -> int:
        return 1 + self.max_retries

    def config_overrides(self) -> Dict[str, Any]:
        """The :meth:`AppSpec.run` keyword arguments this job resolves
        to (mode/seed folded in with the free-form overrides)."""
        kw = dict(self.overrides)
        kw["seed"] = self.seed
        kw["mode"] = self.mode
        if self.deadline_seconds is not None:
            kw.setdefault("deadline_seconds", self.deadline_seconds)
        return kw

    # ------------------------------------------------------------------ #
    # Canonical (framed) serialization.
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": JOB_FORMAT_VERSION,
            "job_id": self.job_id,
            "app": self.app,
            "mode": self.mode,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "overrides": dict(sorted(self.overrides.items())),
            "deadline_seconds": self.deadline_seconds,
            "max_retries": self.max_retries,
            "max_crashes": self.max_crashes,
            "chaos": dict(sorted(self.chaos.items())),
        }

    def to_framed(self) -> str:
        return frame_payload(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        version = payload.get("version")
        if version != JOB_FORMAT_VERSION:
            raise FleetError(
                f"job payload version {version!r} is not the supported "
                f"version {JOB_FORMAT_VERSION}")
        required = ("job_id", "app", "mode", "nprocs", "seed", "overrides")
        missing = [key for key in required if key not in payload]
        if missing:
            raise FleetError(f"job payload missing fields: {missing}")
        return cls(
            job_id=str(payload["job_id"]), app=str(payload["app"]),
            mode=str(payload["mode"]), nprocs=int(payload["nprocs"]),
            seed=int(payload["seed"]),
            overrides=dict(payload["overrides"]),
            deadline_seconds=payload.get("deadline_seconds"),
            max_retries=int(payload.get("max_retries", 2)),
            max_crashes=int(payload.get("max_crashes", 2)),
            chaos=dict(payload.get("chaos", {})))

    @classmethod
    def parse_framed(cls, framed: str, what: str = "job file") -> "JobSpec":
        return cls.from_payload(parse_framed_payload(framed, what))
