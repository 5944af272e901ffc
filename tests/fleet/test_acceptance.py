"""The issue's acceptance scenario, end to end.

A queue of 12 mixed jobs (record + detect-offline + online across apps
and seeds) is served twice from identical submissions:

* a reference service runs uninterrupted;
* a victim service has one worker SIGKILLed mid-job by chaos injection,
  and is itself SIGKILLed mid-run, then restarted with ``--resume``.

Afterwards every job must be terminal, the SIGKILLed attempt must be
accounted as a retry (attempts == starts; no job ran twice without the
journal saying so), and both aggregates must be byte-identical.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.fleet import FleetJournal, FleetSpool, fold_journal

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def submit_mixed_queue(root):
    """12 jobs: 2 record + 2 detect-offline + 8 online (incl. one lossy),
    each submitted through ``repro fleet submit``."""
    def submit(*argv):
        assert main(["fleet", "submit", "--spool", str(root), *argv]) == 0

    trace = {s: os.path.join(str(root), f"trace-{s}.log") for s in (0, 1)}
    for seed in (0, 1):
        submit("queue_racy", "--mode", "record", "--seed", str(seed),
               "--trace-file", trace[seed])
    for seed in (0, 1):
        # May race ahead of its record job and fail transiently on the
        # missing trace: that is the retry path working as designed.
        submit("queue_racy", "--mode", "detect-offline", "--seed", str(seed),
               "--trace-file", trace[seed], "--max-retries", "8")
    submit("queue_racy", "--seeds", "0:4")
    submit("queue_racy", "--set", "loss_rate=0.05",
           "--set", "fault_seed=1")  # lossy online
    submit("fft", "--procs", "2")
    submit("tsp")
    submit("water")
    assert len(FleetSpool(str(root)).pending_files()) == 12


def serve_argv(root, *extra):
    return [sys.executable, "-m", "repro.cli", "fleet", "serve",
            "--spool", str(root), "--slots", "2", "--drain-on-empty",
            "--poll-interval", "0.02", "--backoff-base", "0.05",
            "--backoff-cap", "0.2", *extra]


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = SRC + os.pathsep + e.get("PYTHONPATH", "")
    return e


def test_mixed_queue_survives_worker_and_service_kills(tmp_path):
    ref_root = tmp_path / "reference"
    vic_root = tmp_path / "victim"
    submit_mixed_queue(ref_root)
    submit_mixed_queue(vic_root)

    # Reference: uninterrupted execution.
    ref = subprocess.run(serve_argv(ref_root), env=env(),
                         capture_output=True, text=True, timeout=300)
    assert ref.returncode == 0, ref.stdout + ref.stderr

    # Victim: chaos-SIGKILL the 3rd started worker mid-job, and SIGKILL
    # the service itself once a few jobs are in flight.
    proc = subprocess.Popen(
        serve_argv(vic_root, "--chaos-kill-worker", "3",
                   "--chaos-kill-after", "0.1"),
        env=env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    journal_path = FleetSpool(str(vic_root)).journal_path
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        events, _ = FleetJournal.replay(journal_path)
        if sum(1 for e in events if e["event"] == "terminal") >= 3:
            break
        if proc.poll() is not None:
            pytest.fail("service exited before it could be killed")
        time.sleep(0.05)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)

    resumed = subprocess.run(serve_argv(vic_root, "--resume"), env=env(),
                             capture_output=True, text=True, timeout=300)
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr

    # Every job reached a terminal state, none poisoned/failed.
    events, dropped = FleetJournal.replay(journal_path)
    records, _, drained = fold_journal(events)
    assert drained
    assert len(records) == 12
    assert all(rec.state in ("done", "races")
               for rec in records.values()), {
        jid: (rec.state, rec.reason) for jid, rec in records.items()}

    # No job ran twice without being counted as a retry: per job,
    # start events == the final attempts counter, and every start
    # beyond the first is preceded by a journaled retry.
    for jid, rec in records.items():
        starts = [e for e in events
                  if e["event"] == "start" and e["job_id"] == jid]
        retries = [e for e in events
                   if e["event"] == "retry" and e["job_id"] == jid]
        assert len(starts) == rec.attempts
        assert len(starts) == len(retries) + 1

    # The chaos SIGKILL really happened and was retried.
    assert any(e["event"] == "chaos_kill" for e in events)
    assert any(e["event"] == "retry" for e in events)

    # Aggregate byte-identical to the uninterrupted execution.
    for name in ("aggregate.txt", "aggregate.json"):
        ref_bytes = (ref_root / name).read_bytes()
        vic_bytes = (vic_root / name).read_bytes()
        assert ref_bytes == vic_bytes, f"{name} differs"

    assert main(["fleet", "status", "--spool", str(vic_root)]) == 0
