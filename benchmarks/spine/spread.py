#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the driver takes
it: N runs per workload, each with another ``--seed``; per metric the
distance between the first and third quartile of the N values as a share
of their median, against the bound in ``BENCHMARK.json``.

    python3 benchmarks/spine/spread.py [--runs 10] [--first-seed 1]
                                       [--workload W ...] [--out FILE]

Use it to set or re-check the bounds: a spread should stay below a third
of its bound (``setup_s`` is exempt from the spread rule, not from the
median-to-median one, so its median is printed like the others).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="write every run's values as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    wide = 0
    for workload in args.workload or names:
        runs = values[workload] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: run failed",
                      file=sys.stderr)
                return 1
            for name in bounds:
                runs[name].append(result["metrics"][name]["value"])
        print(f"{workload}  ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(runs[name], n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  WIDE" if spread <= bound else "  OVER BOUND"
                wide += 1
            print(f"  {name:18s} median {median:<12.6g} spread "
                  f"{spread:7.4f}  bound {bound:.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
