#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer numbers, one command.

    python3 benchmarks/spine/run.py [--workload W] [--seed S] [--quick]
                                    [--seconds N] [--trace 0|1]
                                    [--out FILE] [--trace-out FILE]

Without ``--workload`` every workload runs, each in its own fresh child
process, one after the other (closed loop, one generator; the simulator's
own N process-threads are token-passed, so at most one is runnable).
With ``--workload`` this process *is* that fresh child.

Every metric is printed by name with its unit, then one JSON object on
the last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``, both when ``--trace`` is not given; the timed
reps run either way).  The
exit status is non-zero when any rep failed its checks.  See README.md in
this directory for the metric glossary.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def machine() -> dict:
    return {"nproc": os.cpu_count(),
            "allowed_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "switch_interval_s": sys.getswitchinterval()}


def cpu_jiffies() -> tuple:
    """(stolen, total) jiffies of all CPUs since boot, from /proc/stat;
    stolen is time the hypervisor ran something else on our CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}:")
    for name, metric in metrics.items():
        spread = (f"  (n={metric['n']} q1={metric['q1']:.6g} "
                  f"q3={metric['q3']:.6g})" if "n" in metric else "")
        print(f"    {name:34s} {metric['value']:<14.6g} "
              f"{metric['unit']}{spread}")


def run_child(args: argparse.Namespace) -> int:
    stolen0, total0 = cpu_jiffies()
    import measure
    from workloads import BY_NAME
    record = measure.measure(
        BY_NAME[args.workload], args.seed, args.seconds, args.quick,
        end_to_end=args.trace != 1, per_layer=args.trace != 0,
        import_s=time.process_time(),  # CPU since process start
        trace_out=args.trace_out).to_dict()
    stolen1, total1 = cpu_jiffies()
    # Not a metric of the program: it says how far to trust this run's
    # host times (see README.md, "Noise").
    steal_share = (stolen1 - stolen0) / max(1, total1 - total0)
    record["machine"] = dict(machine(), steal_share=steal_share)
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"reps/mode {record['reps_per_mode']}  "
          f"sim_fingerprint {record['sim_fingerprint']}  "
          f"error_rate {record['error_rate']:.6g} "
          f"({record['failed']}/{record['attempted']})  "
          f"hypervisor steal {steal_share:.1%}")
    for title in ("end_to_end", "per_layer"):
        if record[title]:
            print_metrics(title, record[title])
    for line in record["notes"]:
        print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for title in ("end_to_end", "per_layer")
               for name, m in record[title].items()}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["failed"] == 0 else 1


def run_all(args: argparse.Namespace, names) -> int:
    """One fresh child per workload; ``--out`` collects their records."""
    from workloads import WORK
    os.makedirs(WORK, exist_ok=True)
    status = 0
    records = {}
    for name in names:
        part = os.path.join(WORK, f"record-{os.getpid()}-{name}.json")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", part]
        if args.quick:
            cmd.append("--quick")
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
        if os.path.exists(part):
            with open(part) as f:
                records[name] = json.load(f)
            os.remove(part)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"machine": machine(), "seed": args.seed,
                       "quick": args.quick, "workloads": records}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
    return status


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"spine: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import BY_NAME, RUN_SECONDS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(BY_NAME))
    parser.add_argument("--seed", type=int, default=0,
                        help="fault_seed of every cell (the network fault "
                             "schedule)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time of the timed reps")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (traced run); default both")
    parser.add_argument("--quick", action="store_true",
                        help="3 reps per mode and one set-up pass")
    parser.add_argument("--out", help="write the full record(s) as JSON")
    parser.add_argument("--trace-out",
                        help="write the traced rep's spans as JSON "
                             "(needs --workload)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, list(BY_NAME))
    return run_child(args)


if __name__ == "__main__":
    sys.exit(main())
