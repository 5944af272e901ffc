"""Fleet spool: the on-disk contract between clients and the service.

Layout under one spool root::

    SEQ            job-id allocator (flock-serialized counter)
    pending/       framed JobSpec files awaiting ingestion
    work/          per-attempt job/heartbeat/stderr files (service-owned)
    results/       framed worker result payloads, one per completed job
    ckpt/<job>/    per-job checkpoint scope (no --checkpoint-dir sharing)
    journal.log    the service's framed event journal (source of truth)
    DRAIN          marker: stop admission, finish in-flight, aggregate
    aggregate.txt  rendered aggregate report (byte-compared in CI)
    aggregate.json framed canonical aggregate payload

Clients (``repro fleet submit``) only ever create files in ``pending/``
and bump ``SEQ``; the service is the sole journal writer.  That split is
what lets submission survive service restarts and lets ``status`` work
with no service running at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro import durable
from repro.errors import AdmissionError, FleetError
from repro.fleet.job import JobSpec, parse_framed_payload
from repro.fleet.journal import FleetJournal
from repro.fleet.queue import DEFAULT_QUEUE_LIMIT

#: Job states that need no further scheduling.
TERMINAL_STATES = ("done", "races", "failed", "poisoned")

#: Attempt-outcome kinds that count toward the poison cap: the worker
#: process died (or was killed for going silent) rather than reporting.
CRASH_KINDS = ("crash", "hung")


@dataclass
class JobRecord:
    """A job's full scheduling state, reconstructible from the journal."""

    spec: JobSpec
    state: str = "pending"
    attempts: int = 0
    crashes: int = 0
    reason: str = ""
    worker_pid: int = 0
    result_hash: str = ""
    last_kind: str = ""
    #: Monotonic time before which a backoff-waiting job may not start
    #: (in-memory only; resumes retry immediately).
    eligible_at: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class FleetSpool:
    """Path schema + client-side operations for one fleet spool."""

    def __init__(self, root: str):
        self.root = root
        self.pending_dir = os.path.join(root, "pending")
        self.work_dir = os.path.join(root, "work")
        self.results_dir = os.path.join(root, "results")
        self.ckpt_dir = os.path.join(root, "ckpt")
        self.journal_path = os.path.join(root, "journal.log")
        self.drain_path = os.path.join(root, "DRAIN")
        self.aggregate_txt = os.path.join(root, "aggregate.txt")
        self.aggregate_json = os.path.join(root, "aggregate.json")
        self.seq_path = os.path.join(root, "SEQ")
        self.serve_lock_path = os.path.join(root, "SERVE.LOCK")

    def ensure(self) -> None:
        for path in (self.root, self.pending_dir, self.work_dir,
                     self.results_dir, self.ckpt_dir):
            os.makedirs(path, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Client side: id allocation and submission.
    # ------------------------------------------------------------------ #
    def next_job_id(self) -> str:
        """Allocate the next spool-unique job id, serialized by an
        advisory lock so concurrent submitters never collide."""
        self.ensure()
        lock = durable.FileLock(self.seq_path, wait=True)
        try:
            seq = int(lock.note or 0)
            lock.note = str(seq + 1)
        finally:
            lock.close()
        return f"job-{seq:06d}"

    def submit(self, spec: JobSpec,
               limit: int = DEFAULT_QUEUE_LIMIT) -> str:
        """Spool a job for the service, honoring the admission bound:
        a backlog of ``limit`` not-yet-ingested submissions refuses new
        ones with :class:`AdmissionError` (backpressure, not failure)."""
        self.ensure()
        backlog = len(self.pending_files())
        if backlog >= limit:
            raise AdmissionError(spec.job_id, limit)
        path = os.path.join(self.pending_dir, spec.job_id + ".json")
        durable.publish(path, spec.to_framed() + "\n")
        return path

    def pending_files(self) -> List[str]:
        if not os.path.isdir(self.pending_dir):
            return []
        return sorted(name for name in os.listdir(self.pending_dir)
                      if name.endswith(".json"))

    def checkpoint_dir_for(self, job_id: str) -> str:
        """Per-job checkpoint scope: two fleet jobs can both ask for
        checkpointing without tripping the shared-directory guard."""
        return os.path.join(self.ckpt_dir, job_id)

    # ------------------------------------------------------------------ #
    # Results.
    # ------------------------------------------------------------------ #
    def result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, job_id + ".json")

    def load_result(self, job_id: str) -> Tuple[Dict[str, Any], str]:
        """Read and verify a worker result; returns ``(payload, digest)``
        where ``digest`` is the frame's content hash (journaled so a
        resume can detect a result file lost or corrupted since)."""
        path = self.result_path(job_id)
        what = f"result for {job_id}"
        framed = durable.read_text(path, FleetError, what)
        payload = parse_framed_payload(framed, what)
        if payload.get("job_id") != job_id:
            raise FleetError(
                f"result file {path!r} names job "
                f"{payload.get('job_id')!r}, expected {job_id!r}")
        return payload, durable.digest(durable.unframe(framed))


def fold_journal(events: List[Dict[str, Any]]
                 ) -> Tuple[Dict[str, JobRecord], bool, bool]:
    """Replay journal events into per-job records.

    Returns ``(records, drain_requested, drained)``.  The folding rules
    are the exact mirror of how the service journals transitions —
    ``serve --resume``, ``fleet status``, and the tests all reconstruct
    state through this one function so they can never disagree.
    """
    records: Dict[str, JobRecord] = {}
    drain_requested = False
    drained = False
    for ev in events:
        kind = ev["event"]
        if kind == "submit":
            spec = JobSpec.from_payload(ev["job"])
            records[spec.job_id] = JobRecord(spec=spec)
        elif kind == "start":
            rec = records[ev["job_id"]]
            rec.attempts = ev["attempt"]
            rec.worker_pid = ev["pid"]
            rec.state = "running"
        elif kind == "outcome":
            rec = records[ev["job_id"]]
            rec.last_kind = ev["kind"]
            if ev["kind"] in CRASH_KINDS:
                rec.crashes += 1
        elif kind == "retry":
            rec = records[ev["job_id"]]
            rec.state = "pending"
            rec.eligible_at = 0.0
        elif kind == "terminal":
            rec = records[ev["job_id"]]
            rec.state = ev["state"]
            rec.reason = ev.get("reason", "")
            rec.result_hash = ev.get("result_hash", "")
        elif kind == "drain":
            drain_requested = True
        elif kind == "drained":
            drained = True
        # "service", "reject", "chaos_kill" carry no job state.
    return records, drain_requested, drained


def status_text(spool: FleetSpool) -> str:
    """Point-in-time fleet status from the journal + spool (no live
    service needed — the journal IS the state)."""
    from repro.harness.format import render_table
    events, dropped = FleetJournal.replay(spool.journal_path)
    records, drain_requested, drained = fold_journal(events)
    rows = []
    for job_id in sorted(records):
        rec = records[job_id]
        rows.append([job_id, rec.spec.app, rec.spec.mode, rec.spec.seed,
                     rec.state, rec.attempts, rec.crashes,
                     rec.reason or "-"])
    out = [render_table(
        "Fleet status",
        ["job", "app", "mode", "seed", "state", "attempts", "crashes",
         "reason"], rows)]
    pending = spool.pending_files()
    out.append("")
    out.append(f"spooled (awaiting ingestion): {len(pending)}")
    terminal = sum(1 for rec in records.values() if rec.terminal)
    out.append(f"ingested: {len(records)}  terminal: {terminal}")
    if drained:
        out.append("service: drained")
    elif drain_requested:
        out.append("service: draining")
    if dropped:
        out.append(f"journal: {dropped} torn trailing line(s) ignored")
    return "\n".join(out) + "\n"
