"""Table 3 — Dynamic Metrics.

Per application, from detection-on runs:

* **Intervals Used** — share of the epoch intervals involved in at least
  one concurrent pair with page overlap (unsynchronized sharing, true or
  false);
* **Bitmaps Used** — share of created word bitmaps the master had to
  retrieve to separate false from true sharing;
* **Msg Overhead** — share of all network bytes added by the detector
  (read notices + the bitmap round);
* **Shared / Private accesses per second** — runtime calls to the analysis
  routine, classified, per virtual second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.harness.context import DEFAULT_PROCS, ExperimentContext
from repro.harness.format import pct, render_table
from repro.harness.paper_values import PAPER_TABLE3


@dataclass
class Table3Row:
    app: str
    intervals_used: float
    bitmaps_used: float
    msg_overhead: float
    shared_per_sec: float
    private_per_sec: float


def compute_table3(ctx: ExperimentContext,
                   nprocs: int = DEFAULT_PROCS) -> List[Table3Row]:
    rows: List[Table3Row] = []
    for app in ctx.app_names:
        res = ctx.result(app, nprocs).detected
        stats, secs = res.detector_stats, res.runtime_seconds
        rows.append(Table3Row(
            app=app,
            intervals_used=stats.intervals_used_fraction,
            bitmaps_used=stats.bitmaps_used_fraction,
            msg_overhead=res.traffic.message_overhead_fraction(),
            shared_per_sec=res.metrics["dsm.env.words"] / secs,
            private_per_sec=res.metrics["dsm.env.private_words"] / secs,
        ))
    return rows


def render_table3(rows: List[Table3Row]) -> str:
    return render_table(
        "Table 3. Dynamic Metrics (measured; paper values in parentheses)",
        ["App", "Intervals Used", "Bitmaps Used", "Msg Ohead",
         "Shared/s", "Private/s"],
        [[r.app.upper(),
          f"{pct(r.intervals_used)} ({pct(PAPER_TABLE3[r.app]['intervals_used'])})",
          f"{pct(r.bitmaps_used)} ({pct(PAPER_TABLE3[r.app]['bitmaps_used'])})",
          f"{100 * r.msg_overhead:.1f}% "
          f"({100 * PAPER_TABLE3[r.app]['msg_overhead']:.1f}%)",
          f"{r.shared_per_sec:,.0f}",
          f"{r.private_per_sec:,.0f}"] for r in rows])
