"""Run every experiment and render a combined report.

``python -m repro.harness.experiments`` regenerates all tables and figures
and (with ``--write``) refreshes EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.registry import APPLICATIONS
from repro.core.report import RaceReport, involves_symbol
from repro.harness.context import DEFAULT_PROCS, PROC_SWEEP, ExperimentContext
from repro.harness.figure3 import Figure3Row, compute_figure3, render_figure3
from repro.harness.figure4 import Figure4Row, compute_figure4, render_figure4
from repro.harness.format import markdown_table, pct
from repro.harness.paper_values import (PAPER_AVG_SLOWDOWN, PAPER_TABLE1,
                                        PAPER_TABLE2, PAPER_TABLE3)
from repro.harness.table1 import Table1Row, compute_table1, render_table1
from repro.harness.table2 import Table2Row, compute_table2, render_table2
from repro.harness.table3 import Table3Row, compute_table3, render_table3


@dataclass
class ExperimentResults:
    table1: List[Table1Row]
    table2: List[Table2Row]
    table3: List[Table3Row]
    figure3: List[Figure3Row]
    figure4: List[Figure4Row]
    #: app -> race reports from the 8-processor detection run.
    races: Dict[str, List[RaceReport]]

    @property
    def avg_slowdown(self) -> float:
        return sum(r.slowdown for r in self.table1) / len(self.table1)


def run_all_experiments(ctx: Optional[ExperimentContext] = None,
                        sweep=PROC_SWEEP) -> ExperimentResults:
    ctx = ctx or ExperimentContext()
    figure4 = compute_figure4(ctx, sweep)  # warms the cache for the rest
    races = {app: ctx.result(app, DEFAULT_PROCS).detected.races
             for app in ctx.app_names}
    return ExperimentResults(
        table1=compute_table1(ctx),
        table2=compute_table2(),
        table3=compute_table3(ctx),
        figure3=compute_figure3(ctx),
        figure4=figure4,
        races=races,
    )


def render_findings(results: ExperimentResults) -> str:
    """The §5 headline: which programs race, and on what variable."""
    lines = ["Race findings (8 processors):"]
    for app, races in results.races.items():
        if not races:
            lines.append(f"  {app.upper():6s} no data races "
                         f"({'expected' if not APPLICATIONS[app].expect_races else 'UNEXPECTED'})")
            continue
        symbols = sorted({r.symbol.split('+')[0] for r in races})
        kinds = sorted({r.kind.value for r in races})
        lines.append(f"  {app.upper():6s} {len(races)} races on "
                     f"{', '.join(symbols)} ({', '.join(kinds)})")
    return "\n".join(lines)


def render_report(results: ExperimentResults) -> str:
    parts = [
        render_table1(results.table1),
        render_table2(results.table2),
        render_table3(results.table3),
        render_figure3(results.figure3),
        render_figure4(results.figure4),
        render_findings(results),
        f"Average slowdown: {results.avg_slowdown:.2f} "
        f"(paper: {PAPER_AVG_SLOWDOWN})",
    ]
    return "\n\n".join(parts)


def render_experiments_md(results: ExperimentResults) -> str:
    """EXPERIMENTS.md: paper-vs-measured for every artifact."""
    out: List[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerate everything with `python -m repro.harness.experiments`",
        "or per-artifact with `pytest benchmarks/ --benchmark-only`.",
        "All measured numbers come from the deterministic simulation at the",
        "scaled default inputs (see DESIGN.md for the substitution table);",
        "the reproduction targets are the paper's *shapes*, not absolute",
        "values: who wins, orderings, zero/nonzero structure, and rough",
        "factors.",
        "",
        "## Table 1 — Application characteristics",
        "",
        markdown_table(
            ["App", "Input (ours)", "Input (paper)", "Sync",
             "Memory KB (ours)", "KB (paper)",
             "Intervals/barrier (ours)", "(paper)",
             "Slowdown 8p (ours)", "(paper)"],
            [[r.app.upper(), r.input, PAPER_TABLE1[r.app]["input"],
              r.synchronization, r.memory_kbytes,
              PAPER_TABLE1[r.app]["memory_kbytes"],
              r.intervals_per_barrier,
              PAPER_TABLE1[r.app]["intervals_per_barrier"],
              r.slowdown, PAPER_TABLE1[r.app]["slowdown_8proc"]]
             for r in results.table1]),
        "",
        "Shape checks: every slowdown in the 1.4–2.7 band around the",
        "paper's ~2x (TSP, the instrumentation-heaviest program, is the",
        "most expensive in both); TSP has the most intervals per barrier;",
        "barrier-only apps (FFT, SOR) have exactly 2.  Memory sizes are",
        "smaller than the paper's in proportion to the scaled inputs.",
        "",
        "## Table 2 — Instrumentation statistics",
        "",
        markdown_table(
            ["App", "Stack", "Static", "Library", "CVM", "Inst. (ours)",
             "Inst. (paper)", "Eliminated"],
            [[r.app.upper(), r.stack, r.static, r.library, r.cvm,
              r.instrumented, PAPER_TABLE2[r.app]["instrumented"],
              pct(r.eliminated_fraction)] for r in results.table2]),
        "",
        "Shape checks: >99% of loads/stores statically eliminated;",
        "library code dominates; Water carries the largest residue.",
        "",
        "## Table 3 — Dynamic metrics",
        "",
        markdown_table(
            ["App", "Intervals used (ours)", "(paper)",
             "Bitmaps used (ours)", "(paper)",
             "Msg overhead (ours)", "(paper)",
             "Shared/s", "Private/s"],
            [[r.app.upper(), pct(r.intervals_used),
              pct(PAPER_TABLE3[r.app]["intervals_used"]),
              pct(r.bitmaps_used), pct(PAPER_TABLE3[r.app]["bitmaps_used"]),
              f"{100 * r.msg_overhead:.1f}%",
              f"{100 * PAPER_TABLE3[r.app]['msg_overhead']:.1f}%",
              f"{r.shared_per_sec:,.0f}", f"{r.private_per_sec:,.0f}"]
             for r in results.table3]),
        "",
        "Shape checks: SOR at exactly 0% (no unsynchronized sharing);",
        "TSP by far the highest intervals-used with only a minority of",
        "bitmaps fetched; Water between SOR and TSP (paper: 13%); private",
        "analysis calls outnumber shared ones except for SOR (the paper's",
        "Table 3 shows the same exception).  Message overhead is nonzero",
        "everywhere and largest for the lock-based programs, but Water's",
        "dramatic 48% is not reproduced in magnitude: it comes from the",
        "paper's full-scale interval counts (hundreds per barrier epoch)",
        "and 8 KB page-fetch messages, which the scaled inputs and small",
        "simulated pages do not reach (see docs/cost_model.md).",
        "",
        "## Figure 3 — Overhead breakdown",
        "",
        markdown_table(
            ["App", "CVM Mods", "Proc Call", "Access Check", "Intervals",
             "Bitmaps", "Total", "Instrumentation share"],
            [[r.app.upper()]
             + [f"{100 * r.fractions[k]:.1f}%" for k in
                ("cvm_mods", "proc_call", "access_check",
                 "intervals", "bitmaps")]
             + [f"{100 * r.total_overhead:.0f}%",
                f"{100 * r.instrumentation_share:.0f}%"]
             for r in results.figure3]),
        "",
        "Shape checks: instrumentation (proc call + access check) is the",
        "dominant overhead (paper: ~68% on average); interval and bitmap",
        "comparison are at most the 3rd/4th-largest components.",
        "",
        "## Figure 4 — Slowdown vs. processors",
        "",
        markdown_table(
            ["App"] + [f"{np_}p" for np_ in sorted(
                results.figure4[0].slowdowns)] + ["Decreasing?"],
            [[r.app.upper()]
             + [f"{r.slowdowns[np_]:.2f}" for np_ in sorted(r.slowdowns)]
             + ["yes" if r.decreasing_overall() else "no"]
             for r in results.figure4]),
        "",
        "Shape check: slowdown does not grow from the smallest to the",
        "largest configuration (the paper's Figure 4 trend).",
        "",
        "## §5 headline findings",
        "",
        "```",
        render_findings(results),
        "```",
        "",
        f"Average slowdown: {results.avg_slowdown:.2f}"
        f" (paper: {PAPER_AVG_SLOWDOWN}).",
        "",
        "Expected: TSP reports benign read-write races on the global tour",
        "bound (`tsp_bound`); Water reports the write-write bug on the",
        "potential-energy accumulator (`water_poteng`); FFT and SOR are",
        "race-free.  The detector's full output for each run is validated",
        "against two oracles in tests/ (exact happens-before and Adve-style",
        "post-mortem analysis).",
    ]
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", metavar="PATH", default=None,
                        help="also write EXPERIMENTS.md-style output here")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="export all artifacts as one JSON document")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="export one CSV per table/figure into DIR")
    args = parser.parse_args(argv)
    results = run_all_experiments()
    print(render_report(results))
    if args.write:
        with open(args.write, "w") as f:
            f.write(render_experiments_md(results))
        print(f"\nwrote {args.write}")
    if args.json:
        from repro.harness.export import export_json
        export_json(results, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        from repro.harness.export import export_csv
        for path in export_csv(results, args.csv):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
