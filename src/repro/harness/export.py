"""Machine-readable export of every experiment artifact.

``export_json`` emits one self-describing document with the measured and
paper values for Tables 1–3 and Figures 3–4 plus the race findings;
``export_csv`` writes one CSV per artifact into a directory.  These are
the files a plotting pipeline (or a regression dashboard tracking the
reproduction over time) consumes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict
from typing import Dict, List

from repro.harness.experiments import ExperimentResults
from repro.harness.paper_values import (PAPER_TABLE1, PAPER_TABLE2,
                                        PAPER_TABLE3)
from repro.sim.costmodel import OVERHEAD_CATEGORIES


def results_to_dict(results: ExperimentResults) -> Dict:
    """The full experiment payload as plain data."""
    return {
        "table1": [{**asdict(r), "paper": PAPER_TABLE1[r.app]}
                   for r in results.table1],
        "table2": [{**asdict(r), "paper": PAPER_TABLE2[r.app]}
                   for r in results.table2],
        "table3": [{**asdict(r), "paper": PAPER_TABLE3[r.app]}
                   for r in results.table3],
        "figure3": [
            {"app": r.app, **r.fractions,
             "total_overhead": r.total_overhead,
             "instrumentation_share": r.instrumentation_share}
            for r in results.figure3],
        "figure4": [
            {"app": r.app,
             "slowdowns": {str(k): v for k, v in r.slowdowns.items()},
             "decreasing": r.decreasing_overall()}
            for r in results.figure4],
        "races": {
            app: [{"kind": race.kind.value, "symbol": race.symbol,
                   "addr": race.addr, "epoch": race.epoch,
                   "a": {"pid": race.a.pid, "interval": race.a.index,
                         "access": race.a.access},
                   "b": {"pid": race.b.pid, "interval": race.b.index,
                         "access": race.b.access}}
                  for race in races]
            for app, races in results.races.items()},
        "avg_slowdown": results.avg_slowdown,
    }


def export_json(results: ExperimentResults, path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        json.dump(results_to_dict(results), f, indent=2, sort_keys=True)


def export_csv(results: ExperimentResults, directory: str) -> List[str]:
    """Write table1..figure4 CSVs; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    def write(name: str, headers: List[str], rows: List[List]) -> None:
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(headers)
            w.writerows(rows)
        written.append(path)

    write("table1",
          ["app", "input", "synchronization", "memory_kbytes",
           "intervals_per_barrier", "slowdown", "paper_slowdown"],
          [[r.app, r.input, r.synchronization, r.memory_kbytes,
            r.intervals_per_barrier, r.slowdown,
            PAPER_TABLE1[r.app]["slowdown_8proc"]] for r in results.table1])
    write("table2",
          ["app", "stack", "static", "library", "cvm", "instrumented",
           "eliminated_fraction", "paper_instrumented"],
          [[r.app, r.stack, r.static, r.library, r.cvm, r.instrumented,
            r.eliminated_fraction, PAPER_TABLE2[r.app]["instrumented"]]
           for r in results.table2])
    write("table3",
          ["app", "intervals_used", "bitmaps_used", "msg_overhead",
           "shared_per_sec", "private_per_sec",
           "paper_intervals_used", "paper_bitmaps_used"],
          [[r.app, r.intervals_used, r.bitmaps_used, r.msg_overhead,
            r.shared_per_sec, r.private_per_sec,
            PAPER_TABLE3[r.app]["intervals_used"],
            PAPER_TABLE3[r.app]["bitmaps_used"]] for r in results.table3])
    write("figure3",
          ["app"] + [c.value for c in OVERHEAD_CATEGORIES]
          + ["total_overhead", "instrumentation_share"],
          [[r.app] + [r.fractions[c.value] for c in OVERHEAD_CATEGORIES]
           + [r.total_overhead, r.instrumentation_share]
           for r in results.figure3])
    if results.figure4:
        procs = sorted(results.figure4[0].slowdowns)
        write("figure4",
              ["app"] + [f"slowdown_{p}p" for p in procs] + ["decreasing"],
              [[r.app] + [r.slowdowns[p] for p in procs]
               + [r.decreasing_overall()] for r in results.figure4])
    return written
