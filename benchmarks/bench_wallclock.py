#!/usr/bin/env python
"""Wall-clock benchmark of the epoch-detection engines.

Captures the interval batches that real application runs hand to the
barrier master (``repro.perf.capture_epochs``), then replays each batch
through both detection engines — the reference O(i²p²) algorithm and the
default fast path — timing the full ``run_epoch`` analysis and checking
in the same breath that races, statistics, and virtual-time ledgers are
identical.  Results go to ``BENCH_detection.json`` so the repository
carries a perf trajectory across PRs; a ``--quick`` run writes
``BENCH_detection_smoke.json`` instead and leaves the committed report
alone.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick   # CI smoke

Exit status is non-zero if any engine pair disagrees, or if the stress
workload's speedup falls below the target (``--min-speedup``, default
3x; the acceptance bar for the fast path).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app  # noqa: E402
from repro.perf import capture_epochs, time_detection  # noqa: E402

#: (app, nprocs, stress?) — the stress row is the acceptance gate: a
#: barrier-synchronized workload at paper-scale epoch counts, where the
#: naive pair search's quadratic term dominates.
FULL_WORKLOADS = [
    ("tsp", 8, False),
    ("tsp", 16, False),
    ("water", 8, False),
    ("water", 16, True),
]
QUICK_WORKLOADS = [
    ("water", 8, True),
]


def bench_workload(app: str, nprocs: int, stress: bool,
                   repeats: int) -> dict:
    spec = get_app(app)
    t0 = time.perf_counter()
    run, epochs = capture_epochs(spec, nprocs=nprocs)
    capture_s = time.perf_counter() - t0
    page_size = run.config.page_size_words
    ref = time_detection(epochs, page_size, nprocs, fast_path=False,
                         cost_model=run.config.cost_model,
                         repeats=repeats, label=f"{app}@{nprocs}:ref")
    fast = time_detection(epochs, page_size, nprocs, fast_path=True,
                          cost_model=run.config.cost_model,
                          repeats=repeats, label=f"{app}@{nprocs}:fast")
    equivalent = ref.fingerprint() == fast.fingerprint()
    return {
        "app": app,
        "nprocs": nprocs,
        "stress": stress,
        "epochs": len(epochs),
        "intervals": sum(len(e.intervals) for e in epochs),
        "races": len(fast.races),
        "capture_s": capture_s,
        "reference": ref.sample.as_dict(),
        "fast_path": fast.sample.as_dict(),
        "speedup": ref.sample.best / fast.sample.best,
        "equivalent": equivalent,
        "model_comparisons": fast.stats.interval_comparisons,
        "actual_comparisons": {"reference": ref.actual_comparisons,
                               "fast_path": fast.actual_comparisons},
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="single small workload, fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="wall-clock samples per engine (default 5, "
                             "quick 2)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required fast-path speedup on the stress "
                             "workload (default 3.0)")
    parser.add_argument("--output", default=None,
                        help="where to write the JSON report (default "
                             "BENCH_detection.json, quick "
                             "BENCH_detection_smoke.json)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = ("BENCH_detection_smoke.json" if args.quick
                       else "BENCH_detection.json")

    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    repeats = args.repeats or (2 if args.quick else 5)

    rows = []
    for app, nprocs, stress in workloads:
        row = bench_workload(app, nprocs, stress, repeats)
        rows.append(row)
        print(f"{app}@{nprocs}{' [stress]' if stress else '':9s} "
              f"epochs={row['epochs']:3d} intervals={row['intervals']:5d}  "
              f"ref {row['reference']['best_s'] * 1e3:8.1f} ms  "
              f"fast {row['fast_path']['best_s'] * 1e3:8.1f} ms  "
              f"speedup {row['speedup']:5.2f}x  "
              f"{'OK' if row['equivalent'] else 'MISMATCH'}")

    stress_rows = [r for r in rows if r["stress"]]
    stress_speedup = min(r["speedup"] for r in stress_rows)
    report = {
        "benchmark": "epoch-detection wall clock",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": rows,
        "stress_speedup": stress_speedup,
        "min_speedup_required": args.min_speedup,
        "all_equivalent": all(r["equivalent"] for r in rows),
    }
    # The scale-out benchmark (bench_detection_scaleout.py) owns the
    # "scaleout" and "coarse_filter" keys of the shared file; carry them
    # through a rewrite.
    if os.path.exists(args.output):
        with open(args.output) as f:
            previous = json.load(f)
        for key in ("scaleout", "coarse_filter"):
            if key in previous:
                report[key] = previous[key]
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {args.output}")

    if not report["all_equivalent"]:
        print("FAIL: engines disagree", file=sys.stderr)
        return 1
    if stress_speedup < args.min_speedup:
        print(f"FAIL: stress speedup {stress_speedup:.2f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    print(f"PASS: stress speedup {stress_speedup:.2f}x "
          f"(>= {args.min_speedup:.1f}x), all engines equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
