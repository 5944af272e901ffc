#!/usr/bin/env python
"""Record-mode overhead benchmark (the two-phase pipeline's headline).

For every registered application this measures, in deterministic virtual
time, the cost of the ``--mode record`` run — detection off, logging
only the synchronization order — against an uninstrumented base run and
against full online detection, and re-executes each trace with ``--mode
detect-offline`` to confirm the offline reports are byte-identical to
the monolithic online run.

The comparison point from the literature: Ronsse & De Bosschere's
non-intrusive record/replay (RECPLAY) reports roughly a 2.2x record
slowdown.  Here the trace captures grant/arrival/delivery order already
known to the runtime, so the record run should stay within a few percent
of the base run — the gate (``--max-record-overhead``, default 1.10)
fails the benchmark if any app's record slowdown drifts above it, and
``--min-advantage`` (default 4.0) fails it if online detection's
overhead is not at least that many times the record overhead (both
measured as *added* virtual time over the base run).

Results go to ``BENCH_record.json`` so the repository carries the
record-overhead trajectory across PRs, alongside
``BENCH_detection.json``; a ``--quick`` run writes the git-ignored
``BENCH_record_smoke.json`` instead.

Usage::

    PYTHONPATH=src python benchmarks/bench_record.py           # full
    PYTHONPATH=src python benchmarks/bench_record.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from typing import List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app  # noqa: E402

#: RECPLAY's record-phase slowdown (Ronsse & De Bosschere), the
#: literature comparison row carried into the JSON report.
RECPLAY_RECORD_SLOWDOWN = 2.2


def _workloads(quick: bool) -> List[Tuple[str, int]]:
    if quick:
        return [("sor", 8), ("tsp", 8)]
    rows: List[Tuple[str, int]] = []
    for app in sorted(APPLICATIONS) + sorted(EXTRAS):
        if app == "queue_racy":
            rows.append((app, 3))
            continue
        rows.append((app, 8))
        rows.append((app, 16))
    return rows


def _report_lines(res) -> List[str]:
    return sorted(str(r) for r in res.races)


def bench_workload(app: str, nprocs: int, trace_dir: str) -> dict:
    spec = get_app(app)
    trace_path = os.path.join(trace_dir, f"{app}_{nprocs}.trace")

    base = spec.run(nprocs=nprocs, detection=False)
    recorded = spec.run(nprocs=nprocs, mode="record", trace_file=trace_path)
    online = spec.run(nprocs=nprocs)
    replayed = spec.run(nprocs=nprocs, mode="detect-offline",
                        trace_file=trace_path)

    record_slowdown = recorded.runtime_cycles / base.runtime_cycles
    online_slowdown = online.runtime_cycles / base.runtime_cycles
    equivalent = (_report_lines(replayed) == _report_lines(online)
                  and replayed.detector_stats == online.detector_stats)
    rs = recorded.record_stats
    return {
        "app": app,
        "nprocs": nprocs,
        "base_cycles": base.runtime_cycles,
        "record_cycles": recorded.runtime_cycles,
        "online_cycles": online.runtime_cycles,
        "record_slowdown": record_slowdown,
        "online_slowdown": online_slowdown,
        "entries_recorded": rs["entries_recorded"],
        "trace_bytes": rs["trace_bytes"],
        "races": len(online.races),
        "replay_equivalent": equivalent,
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The command line, ``--output`` resolved: a ``--quick`` run goes to
    the git-ignored smoke file unless told otherwise, so it never
    overwrites the committed full-run figures."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="two workloads only (CI smoke)")
    parser.add_argument("--max-record-overhead", type=float, default=1.10,
                        help="maximum allowed record-run slowdown over "
                             "the uninstrumented base (default 1.10)")
    parser.add_argument("--min-advantage", type=float, default=4.0,
                        help="online detection's added overhead must be "
                             "at least this many times the record run's "
                             "(default 4.0)")
    parser.add_argument("--output",
                        help="where to write the JSON report (default "
                             "BENCH_record.json, BENCH_record_smoke.json "
                             "with --quick)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = ("BENCH_record_smoke.json" if args.quick
                       else "BENCH_record.json")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)

    rows = []
    with tempfile.TemporaryDirectory(prefix="bench_record_") as trace_dir:
        for app, nprocs in _workloads(args.quick):
            row = bench_workload(app, nprocs, trace_dir)
            rows.append(row)
            print(f"{app}@{nprocs:<2d}  record {row['record_slowdown']:.4f}x  "
                  f"online {row['online_slowdown']:.3f}x  "
                  f"{row['entries_recorded']:6d} entries  "
                  f"{row['trace_bytes']:7d} trace bytes  "
                  f"{'OK' if row['replay_equivalent'] else 'MISMATCH'}")

    worst_record = max(r["record_slowdown"] for r in rows)
    # The advantage ratio compares *added* overhead; a record run at
    # 1.003x against online detection at 2.6x is a ~530x advantage.
    advantages = [
        (r["online_slowdown"] - 1.0) / max(r["record_slowdown"] - 1.0, 1e-9)
        for r in rows]
    report = {
        "benchmark": "record-mode virtual-time overhead",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "recplay_record_slowdown": RECPLAY_RECORD_SLOWDOWN,
        "workloads": rows,
        "worst_record_slowdown": worst_record,
        "min_online_to_record_advantage": min(advantages),
        "max_record_overhead_required": args.max_record_overhead,
        "min_advantage_required": args.min_advantage,
        "all_equivalent": all(r["replay_equivalent"] for r in rows),
    }
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {args.output}")

    if not report["all_equivalent"]:
        print("FAIL: offline replay reports diverge from online detection",
              file=sys.stderr)
        return 1
    if worst_record > args.max_record_overhead:
        print(f"FAIL: record slowdown {worst_record:.4f}x > "
              f"{args.max_record_overhead:.2f}x", file=sys.stderr)
        return 1
    if min(advantages) < args.min_advantage:
        print(f"FAIL: online/record overhead advantage "
              f"{min(advantages):.1f}x < {args.min_advantage:.1f}x",
              file=sys.stderr)
        return 1
    print(f"PASS: worst record slowdown {worst_record:.4f}x "
          f"(<= {args.max_record_overhead:.2f}x, RECPLAY reference "
          f"{RECPLAY_RECORD_SLOWDOWN}x), online detection costs >= "
          f"{min(advantages):.0f}x the record overhead, all replays "
          "byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
