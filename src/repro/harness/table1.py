"""Table 1 — Application Characteristics.

Columns: input set, synchronization, shared-memory size (kbytes), interval
structures created per process per barrier epoch, and the runtime slowdown
of the race-detecting system versus unmodified CVM at 8 processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.registry import APPLICATIONS
from repro.harness.context import DEFAULT_PROCS, ExperimentContext
from repro.harness.format import render_table
from repro.harness.paper_values import PAPER_TABLE1


@dataclass
class Table1Row:
    app: str
    input: str
    synchronization: str
    memory_kbytes: float
    intervals_per_barrier: float
    slowdown: float


def compute_table1(ctx: ExperimentContext,
                   nprocs: int = DEFAULT_PROCS) -> List[Table1Row]:
    rows: List[Table1Row] = []
    for app in ctx.app_names:
        spec = APPLICATIONS[app]
        m = ctx.result(app, nprocs)
        rows.append(Table1Row(
            app=app,
            input=spec.input_description,
            synchronization=spec.synchronization,
            memory_kbytes=m.detected.metrics["dsm.segment.high_water_kbytes"],
            intervals_per_barrier=m.detected.intervals_per_barrier,
            slowdown=m.slowdown,
        ))
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    return render_table(
        "Table 1. Application Characteristics (measured | paper)",
        ["App", "Input Set", "Synchronization", "Memory (KB)",
         "Intervals/Barrier", "Slowdown (8p)", "Paper Slowdown"],
        [[r.app.upper(), r.input, r.synchronization,
          r.memory_kbytes, r.intervals_per_barrier, r.slowdown,
          PAPER_TABLE1[r.app]["slowdown_8proc"]] for r in rows])
