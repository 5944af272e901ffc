"""Fleet worker: runs exactly one job in an isolated subprocess.

``python -m repro.fleet.worker --job J --result R --heartbeat H`` reads a
framed :class:`~repro.fleet.job.JobSpec`, executes the run it describes,
and writes a framed, fully deterministic result file.  Isolation is the
point: a worker that segfaults, hangs, or is SIGKILLed takes down one
job's attempt, never the service — the supervisor observes the exit code
(or the silence of the heartbeat file) and applies the retry policy.

Liveness is proven, not assumed: a daemon thread rewrites the heartbeat
file every ``--heartbeat-interval`` seconds, so a worker whose main
thread is wedged inside the simulator still beats (it will instead be
caught by the deadline), while a truly stuck interpreter — or one
frozen by the ``{"hang": true}`` chaos hook — goes silent and is killed.

The result payload deliberately carries no wall-clock times, pids, or
host state: a retried job produces byte-identical results (deterministic
simulation), which is what makes the fleet's aggregate report
byte-identical whether or not crashes and retries happened along the way.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Any, Dict

from repro import durable
from repro.exitcodes import (EXIT_CLEAN, EXIT_RACES, classify_exception)
from repro.fleet.job import JobSpec, frame_payload

#: Bump when the result payload schema changes incompatibly.
RESULT_FORMAT_VERSION = 1


def _heartbeat_loop(path: str, interval: float, stop: threading.Event) -> None:
    beat = 0
    while not stop.is_set():
        beat += 1
        try:
            durable.publish(path, str(beat))
        except OSError:
            pass  # a vanished spool is the supervisor's problem, not ours
        stop.wait(interval)


def build_result_payload(spec: JobSpec, result: Any) -> Dict[str, Any]:
    """Deterministic result summary for the aggregate report.

    ``races`` are the canonical sorted report lines (the byte-compare
    format used by every equivalence suite); ``race_sites`` strips the
    interval/epoch coordinates — which legitimately vary across seeds —
    down to (kind, symbol, addr), the key the aggregate dedups on.
    """
    from repro.harness.format import race_report_lines
    sites = sorted({(r.kind.value, r.symbol, r.addr)
                    for r in result.races if r.verdict == "race"})
    return {
        "version": RESULT_FORMAT_VERSION,
        "job_id": spec.job_id,
        "app": spec.app,
        "mode": spec.mode,
        "nprocs": spec.nprocs,
        "seed": spec.seed,
        "races": race_report_lines(result),
        "race_sites": [list(site) for site in sites],
        "unverifiable": len(result.unverifiable),
        "runtime_cycles": result.runtime_cycles,
        "intervals_created": result.intervals_created,
        "barriers_completed": result.barriers_completed,
        "lock_acquires": result.lock_acquires,
        "record_stats": result.record_stats,
    }


def run_job(spec: JobSpec) -> Dict[str, Any]:
    from repro.apps.registry import get_app
    try:
        app = get_app(spec.app)
    except KeyError as exc:
        from repro.errors import ConfigError
        raise ConfigError(str(exc))
    result = app.run(nprocs=spec.nprocs, **spec.config_overrides())
    return build_result_payload(spec, result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.fleet.worker")
    parser.add_argument("--job", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--heartbeat", required=True)
    parser.add_argument("--heartbeat-interval", type=float, default=0.2)
    args = parser.parse_args(argv)

    spec = JobSpec.parse_framed(durable.read_text(args.job))

    if "exit_code" in spec.chaos:
        # Simulated worker death (before any heartbeat): segfault-style
        # failures are modeled as bare exits with the configured code.
        return int(spec.chaos["exit_code"])
    if spec.chaos.get("hang"):
        # Simulated wedged interpreter: never heartbeat, never finish.
        while True:
            time.sleep(3600)

    stop = threading.Event()
    thread = threading.Thread(
        target=_heartbeat_loop,
        args=(args.heartbeat, args.heartbeat_interval, stop), daemon=True)
    thread.start()
    try:
        payload = run_job(spec)
    except BaseException as exc:  # noqa: BLE001 - classified, not hidden
        print(f"worker: job {spec.job_id} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return classify_exception(exc) if isinstance(exc, Exception) else 3
    finally:
        stop.set()
    # Atomic publish: the supervisor only ever sees a complete frame.
    durable.publish(args.result, frame_payload(payload) + "\n")
    return EXIT_RACES if payload["races"] else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
