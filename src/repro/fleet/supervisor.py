"""Fleet supervisor: the crash-tolerant detection service.

One :class:`FleetService` owns a spool and runs the supervision loop:

* **ingest** — framed submissions are moved from ``pending/`` into the
  bounded priority queue; torn files are quarantined, a full queue
  simply leaves files spooled (backpressure, never loss);
* **schedule** — sized-slot placement onto the worker pool
  (:mod:`repro.fleet.placement`), with backfill past jobs that do not
  currently fit;
* **supervise** — each attempt is an isolated worker subprocess with a
  heartbeat file and an optional wall-clock deadline; a silent or
  overstaying worker is SIGKILLed and the attempt classified;
* **retry** — transient failures (runtime errors, timeouts, crashes)
  retry with capped exponential backoff up to the job's retry budget;
  config errors fail permanently at once; repeated *crashes* poison the
  job so one bad config cannot wedge the fleet;
* **journal** — every transition is a framed journal event *before* it
  takes effect, so ``serve --resume`` reconstructs the exact state after
  the service itself is killed: interrupted attempts are counted and
  retried, orphan workers are reaped, and completed results are
  hash-verified against the journal;
* **drain** — a ``DRAIN`` marker (or SIGTERM, or ``--drain-on-empty``)
  stops admission, lets in-flight work finish, and emits the aggregate.

Determinism note: the aggregate report is built only from job specs,
terminal states, and worker result payloads — all crash/retry/timing
metadata stays in the journal and the service log — so the same queue
produces a byte-identical aggregate with or without failures.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import durable
from repro.errors import AdmissionError, FleetError
from repro.exitcodes import (EXIT_CLEAN, EXIT_CONFIG, EXIT_RACES,
                             EXIT_RUNTIME, EXIT_TIMEOUT)
from repro.fleet.aggregate import build_aggregate, render_aggregate
from repro.fleet.job import JobSpec, frame_payload
from repro.fleet.journal import FleetJournal
from repro.fleet.placement import Placement, SlotPool
from repro.fleet.queue import DEFAULT_QUEUE_LIMIT, JobQueue
from repro.fleet.spool import (CRASH_KINDS, FleetSpool, JobRecord,
                               fold_journal)


@dataclass
class _Attempt:
    """One live worker subprocess."""

    record: JobRecord
    proc: subprocess.Popen
    placement: Placement
    heartbeat_path: str
    stderr_path: str
    started_at: float          # monotonic
    kill_after: Optional[float]  # monotonic deadline incl. grace
    stderr_fh: object


class FleetService:
    """The long-lived ``repro fleet serve`` process."""

    def __init__(self, spool_root: str, slots: int = 4,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 poll_interval: float = 0.05,
                 heartbeat_interval: float = 0.2,
                 heartbeat_timeout: float = 5.0,
                 deadline_grace: float = 2.0,
                 backoff_base: float = 0.1,
                 backoff_cap: float = 2.0,
                 drain_on_empty: bool = False,
                 chaos_kill_worker: int = 0,
                 chaos_kill_after: float = 0.15,
                 log=print):
        self.spool = FleetSpool(spool_root)
        self.pool = SlotPool(slots)
        self.queue = JobQueue(queue_limit)
        self.journal = FleetJournal(self.spool.journal_path)
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.deadline_grace = deadline_grace
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.drain_on_empty = drain_on_empty
        #: Chaos: SIGKILL the Nth started worker once (1-based; 0 = off).
        #: The fleet's own fault injection, used by the tests to prove
        #: the retry path with a real dead process.
        self.chaos_kill_worker = chaos_kill_worker
        self.chaos_kill_after = chaos_kill_after
        self._chaos_done = chaos_kill_worker == 0
        self._chaos_target: Optional[str] = None
        self._log = log
        self.records: Dict[str, JobRecord] = {}
        self._attempts: Dict[str, _Attempt] = {}
        self._starts = 0
        self._drain_requested = False
        self._sigterm = False

    # ------------------------------------------------------------------ #
    # Entry point.
    # ------------------------------------------------------------------ #
    def serve(self, resume: bool = False) -> int:
        self.spool.ensure()
        lock = self._take_serve_lock()
        try:
            events, dropped = FleetJournal.replay(self.spool.journal_path)
            if events and not resume:
                raise FleetError(
                    f"spool {self.spool.root!r} already holds service "
                    f"history ({len(events)} journal event(s)); pass "
                    "--resume to recover it, or point --spool at a "
                    "fresh directory")
            if dropped:
                self._log(f"fleet: journal had {dropped} torn trailing "
                          f"line(s) (service was killed mid-write); "
                          f"resuming from the last intact frame")
            self.journal.open(seq_start=FleetJournal.last_seq(events))
            try:
                self.journal.append("service", resume=resume,
                                    slots=self.pool.total_slots,
                                    queue_limit=self.queue.limit)
                if resume:
                    self._recover(events)
                old = signal.signal(signal.SIGTERM, self._on_sigterm)
                try:
                    return self._loop()
                finally:
                    signal.signal(signal.SIGTERM, old)
            finally:
                self.journal.close()
        finally:
            lock.close()

    def _take_serve_lock(self) -> durable.FileLock:
        """One live service per spool, enforced with an OS lock.

        Two services folding one journal would interleave frames and
        corrupt the sequence for every later reader.  The lock is released
        by the kernel when the holder dies — a SIGKILLed service never
        strands its spool, so ``--resume`` needs no cleanup step.
        """
        try:
            lock = durable.FileLock(self.spool.serve_lock_path)
        except durable.LockHeld as held:
            raise FleetError(
                f"spool {self.spool.root!r} is already being served "
                f"(lock {self.spool.serve_lock_path!r} held by os-pid "
                f"{held.holder or 'unknown'}); one service per spool — "
                "stop the other service or point --spool elsewhere"
            ) from None
        lock.note = f"{os.getpid()}\n"
        return lock

    def _on_sigterm(self, signum, frame) -> None:
        self._sigterm = True

    # ------------------------------------------------------------------ #
    # Recovery.
    # ------------------------------------------------------------------ #
    def _recover(self, events: List[Dict]) -> None:
        """Rebuild state from the journal after the service was killed."""
        self.records, self._drain_requested, _ = fold_journal(events)
        for job_id in sorted(self.records):
            rec = self.records[job_id]
            if rec.state == "running":
                # The service died with this attempt in flight.  Reap a
                # surviving orphan, then account the attempt as
                # interrupted: it consumed a try (so a job cannot run
                # twice without being counted as a retry) but is NOT a
                # crash — the worker did nothing wrong.
                self._reap_orphan(rec.worker_pid)
                self.journal.append("outcome", job_id=job_id,
                                    attempt=rec.attempts,
                                    kind="interrupted", rc=None)
                rec.last_kind = "interrupted"
                rec.worker_pid = 0
                if rec.attempts >= rec.spec.attempts_allowed:
                    self._terminal(rec, "failed",
                                   reason="interrupted; retry budget "
                                          "exhausted")
                else:
                    self.journal.append("retry", job_id=job_id,
                                        attempt_next=rec.attempts + 1,
                                        delay_ms=0)
                    self._requeue(rec)
                    self._log(f"fleet: {job_id} was in flight at the "
                              f"kill; requeued as a retry "
                              f"(attempt {rec.attempts + 1})")
            elif rec.state in ("done", "races"):
                # Trust, but verify: the journal says a result exists
                # with this content hash.
                try:
                    _, digest = self.spool.load_result(job_id)
                    ok = digest == rec.result_hash
                except FleetError:
                    ok = False
                if not ok:
                    self._log(f"fleet: {job_id} result file lost or "
                              f"corrupt since the journal entry; "
                              f"re-running")
                    self.journal.append("outcome", job_id=job_id,
                                        attempt=rec.attempts,
                                        kind="result-lost", rc=None)
                    self.journal.append("retry", job_id=job_id,
                                        attempt_next=rec.attempts + 1,
                                        delay_ms=0)
                    rec.result_hash = ""
                    self._requeue(rec)
            elif rec.state == "pending":
                self._requeue(rec)
        self.pool.validate()

    def _requeue(self, rec: JobRecord) -> None:
        """Put a recovered job back in line; if the in-memory queue is
        momentarily over-subscribed (more revived jobs than the bound),
        park it as waiting — :meth:`_promote_waiting` admits it as soon
        as room frees up.  Nothing is ever dropped on resume."""
        try:
            self.queue.push(rec.spec)
            rec.state = "pending"
        except AdmissionError:
            rec.state = "waiting"
            rec.eligible_at = 0.0

    def _reap_orphan(self, pid: int) -> None:
        """SIGKILL a worker that outlived the previous service — but only
        after proving the pid still belongs to one of *our* workers (pids
        get recycled; killing a stranger would be a supervisor bug)."""
        if pid <= 0:
            return
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().decode("utf-8", "replace")
        except OSError:
            return  # already gone
        if "repro.fleet.worker" not in cmdline or \
                self.spool.root not in cmdline:
            return
        self._log(f"fleet: reaping orphan worker pid {pid}")
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Main loop.
    # ------------------------------------------------------------------ #
    def _loop(self) -> int:
        while True:
            if (self._sigterm or os.path.exists(self.spool.drain_path)) \
                    and not self._drain_requested:
                self._drain_requested = True
                self.journal.append("drain")
                self._log("fleet: drain requested; admission stopped")
            self._ingest()
            self._promote_waiting()
            self._schedule()
            self._poll_workers()
            if self._finished():
                return self._finish()
            time.sleep(self.poll_interval)

    def _finished(self) -> bool:
        if self._attempts:
            return False
        busy = any(not rec.terminal for rec in self.records.values())
        if self._drain_requested:
            return not busy
        if self.drain_on_empty:
            return not busy and not self.spool.pending_files()
        return False

    # ------------------------------------------------------------------ #
    # Ingestion (admission).
    # ------------------------------------------------------------------ #
    def _ingest(self) -> None:
        if self._drain_requested:
            return
        for name in self.spool.pending_files():
            if self.queue.full:
                # Backpressure: leave the files spooled; they are not
                # lost, just not admitted yet.
                break
            path = os.path.join(self.spool.pending_dir, name)
            try:
                spec = JobSpec.parse_framed(durable.read_text(path),
                                            what=f"submission {name}")
            except (OSError, FleetError) as exc:
                self.journal.append("reject", file=name, error=str(exc))
                self._log(f"fleet: rejecting submission {name}: {exc}")
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:
                    pass
                continue
            if spec.job_id in self.records:
                self.journal.append("reject", file=name,
                                    error=f"duplicate job id "
                                          f"{spec.job_id!r}")
                os.remove(path)
                continue
            self.journal.append("submit", job=spec.to_payload())
            os.remove(path)
            self.records[spec.job_id] = JobRecord(spec=spec)
            self.queue.push(spec)
            self._log(f"fleet: admitted {spec.job_id} "
                      f"({spec.app}/{spec.mode} seed={spec.seed})")

    def _promote_waiting(self) -> None:
        now = time.monotonic()
        for rec in self.records.values():
            if rec.state == "waiting" and now >= rec.eligible_at \
                    and not self.queue.full:
                rec.state = "pending"
                self.queue.push(rec.spec)

    # ------------------------------------------------------------------ #
    # Scheduling + worker launch.
    # ------------------------------------------------------------------ #
    def _schedule(self) -> None:
        for spec in self.queue.jobs():
            try:
                placement = self.pool.place(spec)
            except FleetError as exc:
                # Can never fit on this pool: permanently failed.
                self.queue.remove(spec.job_id)
                rec = self.records[spec.job_id]
                self.journal.append("outcome", job_id=spec.job_id,
                                    attempt=rec.attempts,
                                    kind="placement", rc=None)
                self._terminal(rec, "failed", reason=str(exc))
                continue
            if placement is None:
                continue  # backfill: a smaller later job may still fit
            self.queue.remove(spec.job_id)
            self._start_attempt(self.records[spec.job_id], placement)

    def _start_attempt(self, rec: JobRecord, placement: Placement) -> None:
        spec = rec.spec
        rec.attempts += 1
        job_path = os.path.join(self.spool.work_dir, spec.job_id + ".json")
        durable.publish(job_path, spec.to_framed() + "\n")
        heartbeat_path = os.path.join(self.spool.work_dir,
                                      spec.job_id + ".hb")
        try:
            os.remove(heartbeat_path)  # stale beats must not count
        except OSError:
            pass
        stderr_path = os.path.join(self.spool.work_dir,
                                   spec.job_id + ".err")
        stderr_fh = open(stderr_path, "wb")
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_dir + os.pathsep + \
            env.get("PYTHONPATH", "") if env.get("PYTHONPATH") else src_dir
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.fleet.worker",
             "--job", job_path,
             "--result", self.spool.result_path(spec.job_id),
             "--heartbeat", heartbeat_path,
             "--heartbeat-interval", str(self.heartbeat_interval)],
            stdout=subprocess.DEVNULL, stderr=stderr_fh, env=env)
        started = time.monotonic()
        kill_after = None
        if spec.deadline_seconds is not None:
            kill_after = started + spec.deadline_seconds + \
                self.deadline_grace
        rec.state = "running"
        rec.worker_pid = proc.pid
        self.journal.append("start", job_id=spec.job_id,
                            attempt=rec.attempts, pid=proc.pid,
                            slots=[placement.start, placement.size])
        self._attempts[spec.job_id] = _Attempt(
            record=rec, proc=proc, placement=placement,
            heartbeat_path=heartbeat_path, stderr_path=stderr_path,
            started_at=started, kill_after=kill_after,
            stderr_fh=stderr_fh)
        self._starts += 1
        if not self._chaos_done and self._chaos_target is None and \
                self._starts == self.chaos_kill_worker:
            self._chaos_target = spec.job_id
        self._log(f"fleet: started {spec.job_id} attempt "
                  f"{rec.attempts}/{spec.attempts_allowed} "
                  f"(pid {proc.pid}, slots "
                  f"{list(placement.slots)})")

    # ------------------------------------------------------------------ #
    # Supervision.
    # ------------------------------------------------------------------ #
    def _poll_workers(self) -> None:
        now = time.monotonic()
        for job_id in sorted(self._attempts):
            att = self._attempts[job_id]
            rc = att.proc.poll()
            kind_override = None
            if rc is None:
                if not self._chaos_done and \
                        job_id == self._chaos_target and \
                        now - att.started_at >= self.chaos_kill_after:
                    # Chaos: murder this worker mid-job, exactly once.
                    self._chaos_done = True
                    self.journal.append("chaos_kill", job_id=job_id,
                                        pid=att.proc.pid)
                    self._log(f"fleet: CHAOS killing worker "
                              f"{att.proc.pid} ({job_id})")
                    att.proc.kill()
                    rc = att.proc.wait()
                elif att.kill_after is not None and now > att.kill_after:
                    self._log(f"fleet: {job_id} overstayed its deadline "
                              f"+ grace; killing worker {att.proc.pid}")
                    att.proc.kill()
                    rc = att.proc.wait()
                    kind_override = "timeout"
                elif self._heartbeat_age(att, now) > \
                        self.heartbeat_timeout:
                    self._log(f"fleet: {job_id} heartbeat silent for "
                              f">{self.heartbeat_timeout:.1f}s; killing "
                              f"hung worker {att.proc.pid}")
                    att.proc.kill()
                    rc = att.proc.wait()
                    kind_override = "hung"
                else:
                    continue
            self._conclude_attempt(att, rc, kind_override)

    def _heartbeat_age(self, att: _Attempt, now: float) -> float:
        try:
            mtime = os.stat(att.heartbeat_path).st_mtime
        except OSError:
            return now - att.started_at  # never beat yet
        return max(0.0, time.time() - mtime)

    def _classify(self, rc: int) -> str:
        if rc < 0:
            return "crash"
        return {EXIT_CLEAN: "clean", EXIT_RACES: "races",
                EXIT_CONFIG: "config", EXIT_TIMEOUT: "timeout",
                EXIT_RUNTIME: "runtime"}.get(rc, "runtime")

    def _conclude_attempt(self, att: _Attempt, rc: int,
                          kind_override: Optional[str]) -> None:
        rec = att.record
        job_id = rec.spec.job_id
        del self._attempts[job_id]
        self.pool.release(job_id)
        att.stderr_fh.close()
        kind = kind_override or self._classify(rc)
        result_hash = ""
        if kind in ("clean", "races"):
            try:
                _, result_hash = self.spool.load_result(job_id)
            except FleetError as exc:
                self._log(f"fleet: {job_id} exited {rc} but its result "
                          f"is unusable: {exc}")
                kind = "runtime"
        self.journal.append("outcome", job_id=job_id,
                            attempt=rec.attempts, kind=kind, rc=rc)
        rec.last_kind = kind
        if kind == "clean":
            self._terminal(rec, "done", result_hash=result_hash)
            return
        if kind == "races":
            self._terminal(rec, "races", result_hash=result_hash)
            return
        if kind == "config":
            self._terminal(rec, "failed",
                           reason="config error (permanent; see "
                                  + att.stderr_path + ")")
            return
        if kind in CRASH_KINDS:
            rec.crashes += 1
            if rec.crashes >= rec.spec.max_crashes:
                self._terminal(rec, "poisoned",
                               reason=f"{rec.crashes} worker crash(es); "
                                      f"poison cap reached")
                return
        if rec.attempts >= rec.spec.attempts_allowed:
            self._terminal(rec, "failed",
                           reason=f"{kind}; retry budget exhausted "
                                  f"after {rec.attempts} attempt(s)")
            return
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (rec.attempts - 1)))
        self.journal.append("retry", job_id=job_id,
                            attempt_next=rec.attempts + 1,
                            delay_ms=int(delay * 1000))
        rec.state = "waiting"
        rec.eligible_at = time.monotonic() + delay
        self._log(f"fleet: {job_id} attempt {rec.attempts} -> {kind} "
                  f"(rc={rc}); retrying in {delay:.2f}s")

    def _terminal(self, rec: JobRecord, state: str, reason: str = "",
                  result_hash: str = "") -> None:
        rec.state = state
        rec.reason = reason
        rec.result_hash = result_hash
        self.journal.append("terminal", job_id=rec.spec.job_id,
                            state=state, reason=reason,
                            result_hash=result_hash)
        extra = f" ({reason})" if reason else ""
        self._log(f"fleet: {rec.spec.job_id} -> {state}{extra}")

    # ------------------------------------------------------------------ #
    # Drain + aggregate.
    # ------------------------------------------------------------------ #
    def _finish(self) -> int:
        payload = self.build_aggregate_payload()
        text = render_aggregate(payload)
        durable.publish(self.spool.aggregate_txt, text)
        durable.publish(self.spool.aggregate_json,
                        frame_payload(payload) + "\n")
        completed = sum(1 for rec in self.records.values()
                        if rec.state in ("done", "races"))
        degraded = len(self.records) - completed
        code = EXIT_CLEAN if degraded == 0 else EXIT_RUNTIME
        self.journal.append("drained", jobs=len(self.records),
                            completed=completed, exit_code=code)
        self._log(f"fleet: drained — {completed}/{len(self.records)} "
                  f"job(s) completed detection; aggregate at "
                  f"{self.spool.aggregate_txt}")
        self._log("")
        self._log(text.rstrip("\n"))
        return code

    def build_aggregate_payload(self) -> Dict:
        entries = []
        for job_id in sorted(self.records):
            rec = self.records[job_id]
            result = None
            if rec.state in ("done", "races"):
                result, _ = self.spool.load_result(job_id)
            entries.append({
                "job_id": job_id, "app": rec.spec.app,
                "mode": rec.spec.mode, "nprocs": rec.spec.nprocs,
                "seed": rec.spec.seed, "state": rec.state,
                "result": result,
            })
        return build_aggregate(entries)
