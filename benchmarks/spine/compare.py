#!/usr/bin/env python3
"""Compare two records written by ``run.py --out``.

    python3 benchmarks/spine/compare.py A.json B.json

A is the base (parent commit, or the first of two runs of one commit), B
the candidate.  Per workload and end-to-end metric it prints both values,
the ratio B/A, and a verdict against the bound in ``BENCHMARK.json``:

PASS        B is not worse than A by more than the bound;
REGRESSED   B is worse by more than the bound and the two sides'
            quartile ranges do not overlap (or the metric has none);
UNRESOLVED  B's median is worse by more than the bound but the quartile
            ranges overlap, or the median is within the bound but a
            side's own quartile range is wider than the bound and B is
            not entirely on the better side of A.

Both records must come from the same seed: simulated behaviour is then
exact, so a differing ``sim_fingerprint`` (or any failed rep) fails the
comparison outright.  Exit status: 1 on REGRESSED, on a fingerprint
mismatch or on failed reps; 0 otherwise.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Wall-clock numbers, per-layer because they cannot hold a bound on the
#: reference box; shown for information when both records carry them.
UNGATED = ("wall_s", "wall_1cpu_s")


def load(path):
    """``{workload: record}`` from a one-workload or an all-workloads
    file."""
    with open(path) as f:
        doc = json.load(f)
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def quartiles(metric):
    """(q1, q3), collapsing to the value for a metric without samples."""
    return (metric.get("q1", metric["value"]),
            metric.get("q3", metric["value"]))


def verdict(a, b, better, bound):
    sign = 1 if better == "lower" else -1
    worse = sign * (b["value"] - a["value"]) / a["value"]
    a_lo, a_hi = quartiles(a)
    b_lo, b_hi = quartiles(b)
    overlap = a_lo <= b_hi and b_lo <= a_hi and ("q1" in a or "q1" in b)
    if worse > bound:
        return "UNRESOLVED" if overlap else "REGRESSED"
    spread = max((a_hi - a_lo) / a["value"], (b_hi - b_lo) / b["value"])
    b_all_better = b_hi < a_lo if better == "lower" else b_lo > a_hi
    if spread > bound and not b_all_better:
        return "UNRESOLVED"
    return "PASS"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    side_a, side_b = load(argv[0]), load(argv[1])
    failed = False
    for workload in side_a:
        if workload not in side_b:
            print(f"{workload}: missing from {argv[1]}")
            failed = True
            continue
        a, b = side_a[workload], side_b[workload]
        print(f"{workload}  (A: seed {a['seed']}, {a['reps_per_mode']} "
              f"reps/mode; B: seed {b['seed']}, {b['reps_per_mode']} "
              f"reps/mode)")
        if a["seed"] != b["seed"]:
            print("  seeds differ: simulated metrics are not comparable")
            failed = True
        elif a["sim_fingerprint"] != b["sim_fingerprint"]:
            print(f"  sim_fingerprint MISMATCH: {a['sim_fingerprint']} vs "
                  f"{b['sim_fingerprint']}")
            failed = True
        for side, rec in (("A", a), ("B", b)):
            if rec["failed"]:
                print(f"  {side}: error_rate {rec['error_rate']:.4g} "
                      f"({rec['failed']}/{rec['attempted']} reps failed)")
                failed = True
        for spec in specs:
            name = spec["name"]
            ma, mb = a["end_to_end"][name], b["end_to_end"][name]
            result = verdict(ma, mb, spec["better"], spec["bound"])
            failed |= result == "REGRESSED"
            print(f"  {name:18s} A {ma['value']:<12.6g} B "
                  f"{mb['value']:<12.6g} {spec['unit']:7s} "
                  f"B/A {mb['value'] / ma['value']:.4f} "
                  f"({spec['better']} is better, bound "
                  f"{spec['bound']:.2f})  {result}")
        for name in UNGATED:
            if name in a["per_layer"] and name in b["per_layer"]:
                va = a["per_layer"][name]["value"]
                vb = b["per_layer"][name]["value"]
                print(f"  {name:18s} A {va:<12.6g} B {vb:<12.6g} s       "
                      f"B/A {vb / va:.4f} (not gated)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
