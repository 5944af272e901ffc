#!/usr/bin/env python
"""Scale-out benchmark of sharded distributed epoch detection.

Runs a detection-heavy synthetic workload (every process generates many
mutually concurrent lock intervals per epoch, so the pair search — not
the application — dominates the coordinator's epoch) across a sweep of
process counts, once with the centralized detection engine and once with
``--sharded-detection``, and records per-nprocs scaling curves:

* total virtual runtime of both engines and their ratio (the speedup);
* the coordinator's detection share of the runtime (INTERVALS + BITMAPS
  cycles on the coordinator's clock / total runtime) — centralized, this
  grows with nprocs until the coordinator is the bottleneck; sharded, it
  collapses to ~0 because the comparison work moves to the shard owners;
* the sharding protocol's own traffic (messages/bytes under
  ``CostCategory.SHARDED_DETECT``) so the distribution cost is visible
  rather than buried in the speedup;
* a real-application row (water) for context at each process count.

Every cell also checks cross-engine equivalence in the same breath: the
sharded run must produce byte-identical race reports and detector
statistics, or the benchmark fails regardless of speed.

A second section ablates the two-level coarse filter
(``--coarse-filter``) on the same stress workload and on every
registered application, on both detection engines: reports must be
byte-identical filter-on vs filter-off, the combined bitmap-fetch
traffic must shrink by ``--min-filter-reduction`` (default 2x), and the
centralized engine — whose coordinator serializes the whole bitmap
round — must get measurably faster.

Results merge into ``BENCH_detection.json`` under the ``"scaleout"``
and ``"coarse_filter"`` keys (the wall-clock microbenchmark owns the
rest of the file) so the repository carries both trajectories across
PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_detection_scaleout.py          # full
    PYTHONPATH=src python benchmarks/bench_detection_scaleout.py --quick  # CI

Exit status is non-zero if any cell's engines disagree, or if the
sharded engine's speedup at the highest swept process count falls below
``--min-speedup`` (default 1.25x — conservative against the ~1.5x the
workload measures at 32 processes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass
from typing import List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.apps.base import AppSpec  # noqa: E402
from repro.apps.registry import get_app  # noqa: E402
from repro.sim.costmodel import CostCategory  # noqa: E402

FULL_NPROCS = [4, 8, 16, 32]
QUICK_NPROCS = [4, 16]

#: Small pages keep each bitmap comparison cheap so the sweep stays fast
#: while the *number* of concurrent pairs still grows quadratically.
STRESS_CONFIG = dict(page_size_words=64, segment_words=1 << 16)


@dataclass(frozen=True)
class StressParams:
    epochs: int = 3
    intervals: int = 12
    pages: int = 2


def detect_stress(env, params: StressParams) -> int:
    """Synthetic pair-search stressor.

    Each process runs ``intervals`` critical sections per epoch under its
    *own* lock — no cross-process ordering, so every interval is
    concurrent with every other process's intervals and the pair search
    sees the full quadratic block grid.  The writes land on shared pages
    at per-pid word offsets (false sharing: overlap at page level, no
    races), plus one genuinely racy word so the report is non-trivial.
    """
    psz = env.system.config.page_size_words
    field = env.malloc(8 * psz, name="field", page_aligned=True)
    racy = env.malloc(psz, name="racy", page_aligned=True)
    for _ in range(params.epochs):
        for it in range(params.intervals):
            with env.locked(env.pid):
                for pg in range(params.pages):
                    env.store(field + pg * psz + env.pid, it)
            if env.pid < 2 and it == 0:
                env.store(racy, env.pid)
        env.barrier()
    return 0


STRESS_SPEC = AppSpec(
    name="detect_stress", func=detect_stress,
    default_params=StressParams(), paper_params=StressParams(),
    synchronization="locks+barriers",
    input_description="synthetic pair-search stressor",
    expect_races=True)


def coordinator_detection_share(result) -> float:
    """INTERVALS + BITMAPS cycles on the coordinator's clock as a share
    of total virtual runtime (the serialized epoch-analysis fraction the
    paper pins at the barrier master, §6.2)."""
    ledger = result.ledgers[0]
    det = (ledger.totals[CostCategory.INTERVALS]
           + ledger.totals[CostCategory.BITMAPS])
    return det / result.runtime_cycles


def bench_cell(spec: AppSpec, nprocs: int, **config) -> dict:
    # The scale-out cells measure sharding alone: the two-level filter
    # (on by default) would shrink the very bitmap-round work sharding
    # distributes, so it is pinned off here and measured separately by
    # the "coarse_filter" section below.
    config = dict(config, coarse_filter=False)
    central = spec.run(nprocs=nprocs, **config)
    sharded = spec.run(nprocs=nprocs, sharded_detection=True, **config)
    equivalent = (
        [str(r) for r in central.races] == [str(r) for r in sharded.races]
        and central.detector_stats == sharded.detector_stats
        and ([str(e) for e in central.unverifiable]
             == [str(e) for e in sharded.unverifiable]))
    sharded_cycles = sharded.aggregate_ledger().totals[
        CostCategory.SHARDED_DETECT]
    return {
        "app": spec.name,
        "nprocs": nprocs,
        "races": len(central.races),
        "equivalent": equivalent,
        "centralized_runtime_cycles": central.runtime_cycles,
        "sharded_runtime_cycles": sharded.runtime_cycles,
        "speedup": central.runtime_cycles / sharded.runtime_cycles,
        "coordinator_detection_share": {
            "centralized": coordinator_detection_share(central),
            "sharded": coordinator_detection_share(sharded),
        },
        "sharded_detect_cycles": sharded_cycles,
        "sharding": asdict(sharded.sharding_stats),
    }


def fetch_bytes(result, sharded: bool) -> int:
    """Bitmap-fetch traffic of one run: the centralized engine's bitmap
    round, or the shard owners' fetch exchanges."""
    if sharded:
        return result.sharding_stats.bitmap_fetch_bytes
    return result.traffic.bitmap_round_bytes


def filter_cell(spec: AppSpec, nprocs: int, sharded: bool,
                **config) -> dict:
    """One two-level-filter ablation cell: the same workload with the
    filter off and on, on one detection engine.  Reports must come out
    byte-identical (the filter only skips provably-empty comparisons);
    what changes is the bitmap-fetch traffic and the virtual runtime."""
    runs = {}
    for filt in (False, True):
        runs[filt] = spec.run(nprocs=nprocs, sharded_detection=sharded,
                              coarse_filter=filt, **config)
    off, on = runs[False], runs[True]
    equivalent = (
        [str(r) for r in off.races] == [str(r) for r in on.races]
        and ([str(e) for e in off.unverifiable]
             == [str(e) for e in on.unverifiable]))
    off_bytes, on_bytes = fetch_bytes(off, sharded), fetch_bytes(on, sharded)
    st = on.detector_stats
    return {
        "app": spec.name,
        "nprocs": nprocs,
        "engine": "sharded" if sharded else "centralized",
        "races": len(off.races),
        "equivalent": equivalent,
        "fetch_bytes_off": off_bytes,
        "fetch_bytes_on": on_bytes,
        "fetch_reduction": off_bytes / on_bytes if on_bytes else float("inf"),
        "runtime_cycles_off": off.runtime_cycles,
        "runtime_cycles_on": on.runtime_cycles,
        "runtime_speedup": off.runtime_cycles / on.runtime_cycles,
        "pairs_filtered": st.pairs_filtered,
        "granule_hits": st.granule_hits,
        "digest_bytes": on.traffic.digest_bytes,
    }


def bench_coarse_filter(sweep_top: int, apps_nprocs: int = 8) -> dict:
    """The ``"coarse_filter"`` entry: the stress workload on both engines
    at the sweep's highest process count (the gated cells), plus an
    equivalence sweep over every registered application on both engines.

    The filter's two wins land on different engines: the centralized
    coordinator serializes the whole bitmap round, so skipped fetches
    turn directly into runtime (the ``runtime_speedup`` gate); the shard
    owners fetch per-shard without cross-owner dedup, so the byte
    reduction is largest there (the ``fetch_reduction`` gate counts both
    engines' traffic together).
    """
    stress_cells = [
        filter_cell(STRESS_SPEC, sweep_top, sharded, **STRESS_CONFIG)
        for sharded in (False, True)]
    app_cells = []
    from repro.apps.registry import APPLICATIONS
    for name in sorted(APPLICATIONS):
        for sharded in (False, True):
            app_cells.append(filter_cell(get_app(name), apps_nprocs,
                                         sharded))
    for row in stress_cells + app_cells:
        print(f"{row['app']}@{row['nprocs']:<3d} {row['engine']:11s} "
              f"fetch {row['fetch_bytes_off']:>8d} -> "
              f"{row['fetch_bytes_on']:>7d}  "
              f"runtime x{row['runtime_speedup']:5.3f}  "
              f"{'OK' if row['equivalent'] else 'MISMATCH'}")
    off_total = sum(r["fetch_bytes_off"] for r in stress_cells)
    on_total = sum(r["fetch_bytes_on"] for r in stress_cells)
    central = stress_cells[0]
    return {
        "benchmark": "two-level coarse-filter ablation",
        "stress_nprocs": sweep_top,
        "stress_cells": stress_cells,
        "app_cells": app_cells,
        "fetch_bytes_off": off_total,
        "fetch_bytes_on": on_total,
        "fetch_reduction": (off_total / on_total if on_total
                            else float("inf")),
        "runtime_speedup": central["runtime_speedup"],
        "all_equivalent": all(r["equivalent"]
                              for r in stress_cells + app_cells),
    }


def merge_report(path: str, entry: dict, key: str = "scaleout") -> None:
    """Install one section into the benchmark file without touching the
    other benchmarks' keys."""
    report = {}
    if os.path.exists(path):
        with open(path) as f:
            report = json.load(f)
    report[key] = entry
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="two process counts only (CI smoke)")
    parser.add_argument("--min-speedup", type=float, default=1.25,
                        help="required sharded speedup on the stress "
                             "workload at the highest process count "
                             "(default 1.25)")
    parser.add_argument("--min-filter-reduction", type=float, default=2.0,
                        help="required bitmap-fetch-byte reduction from "
                             "the two-level filter on the stress workload "
                             "at the highest process count, both engines' "
                             "traffic combined (default 2.0)")
    parser.add_argument("--output", default="BENCH_detection.json",
                        help="benchmark file to merge the scale-out "
                             "entry into")
    args = parser.parse_args(argv)

    sweep = QUICK_NPROCS if args.quick else FULL_NPROCS
    rows = []
    for nprocs in sweep:
        row = bench_cell(STRESS_SPEC, nprocs, **STRESS_CONFIG)
        rows.append(row)
        share = row["coordinator_detection_share"]
        print(f"{row['app']}@{nprocs:<3d} "
              f"speedup {row['speedup']:5.2f}x  "
              f"coord share {share['centralized']:6.1%} -> "
              f"{share['sharded']:6.1%}  "
              f"{'OK' if row['equivalent'] else 'MISMATCH'}")
    context_rows = []
    for nprocs in sweep:
        row = bench_cell(get_app("water"), nprocs)
        context_rows.append(row)
        share = row["coordinator_detection_share"]
        print(f"{row['app']}@{nprocs:<3d} "
              f"speedup {row['speedup']:5.2f}x  "
              f"coord share {share['centralized']:6.1%} -> "
              f"{share['sharded']:6.1%}  "
              f"{'OK' if row['equivalent'] else 'MISMATCH'}")

    stress_row = rows[-1]
    all_rows = rows + context_rows
    entry = {
        "benchmark": "sharded-detection scale-out",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "stress_workload": rows,
        "real_app_context": context_rows,
        "stress_nprocs": stress_row["nprocs"],
        "stress_speedup": stress_row["speedup"],
        "min_speedup_required": args.min_speedup,
        "all_equivalent": all(r["equivalent"] for r in all_rows),
    }
    merge_report(args.output, entry)
    print(f"\nmerged scale-out entry into {args.output}\n")

    filt = bench_coarse_filter(sweep[-1])
    merge_report(args.output, filt, key="coarse_filter")
    print(f"\nmerged coarse-filter entry into {args.output}")

    if not entry["all_equivalent"]:
        print("FAIL: sharded and centralized engines disagree",
              file=sys.stderr)
        return 1
    if stress_row["speedup"] < args.min_speedup:
        print(f"FAIL: scale-out speedup {stress_row['speedup']:.2f}x < "
              f"{args.min_speedup:.2f}x at {stress_row['nprocs']} procs",
              file=sys.stderr)
        return 1
    if not filt["all_equivalent"]:
        print("FAIL: coarse-filter reports differ from the unfiltered "
              "pipeline's", file=sys.stderr)
        return 1
    if filt["fetch_reduction"] < args.min_filter_reduction:
        print(f"FAIL: coarse-filter fetch-byte reduction "
              f"{filt['fetch_reduction']:.2f}x < "
              f"{args.min_filter_reduction:.2f}x at "
              f"{filt['stress_nprocs']} procs", file=sys.stderr)
        return 1
    if filt["runtime_speedup"] <= 1.0:
        print(f"FAIL: coarse-filter centralized runtime speedup "
              f"x{filt['runtime_speedup']:.3f} is not a speedup",
              file=sys.stderr)
        return 1
    print(f"PASS: sharding {stress_row['speedup']:.2f}x at "
          f"{stress_row['nprocs']} procs (>= {args.min_speedup:.2f}x); "
          f"filter {filt['fetch_reduction']:.1f}x fewer fetch bytes, "
          f"x{filt['runtime_speedup']:.3f} centralized runtime; "
          f"all cells equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
