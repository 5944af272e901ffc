#!/usr/bin/env python3
"""CLI smoke cells: the end-to-end equivalences of ``repro.cli``, as a table.

Usage::

    python scripts/smoke.py [CELL ...] [--out DIR]

With no CELL every cell runs.  A *run* is one ``python -m repro.cli`` argv,
executed in ``DIR`` (relative paths; default: a temporary directory, kept
only when something fails) with its stdout in ``NAME.out`` and its stderr
in ``NAME.err``, and it must exit with exactly its declared code
(``repro.exitcodes``: 0 clean, 1 races found, 2 configuration error, 3
runtime failure, 4 deadline).  A *cell* is a list of checks over named
runs; each run executes once however many cells name it.  The process
exits 0 when every run exits as declared and every check holds, 1
otherwise, naming the failed cells and the runs they compared.

Everything a run writes is deterministic except the ``LOCK`` files (they
hold the writer's os-pid), so two ``--out`` directories of two trees
compare with ``diff -r -x LOCK``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Run(NamedTuple):
    #: The ``repro.cli`` arguments, split on whitespace.
    argv: str
    #: The exact exit code the run must return.
    exit: int
    #: Runs that write files this one reads; they run first.
    needs: Tuple[str, ...] = ()
    #: Before running, copy this file to the run's ``--trace-file`` minus
    #: its last 8 bytes (a torn trace tail).
    tear: str = ""


class Same(NamedTuple):
    """Runs ``a`` and ``b`` wrote byte-equal files at ``where``: an argv
    flag naming a file (``--report``, ``--trace-file``) or ``stdout``."""
    a: str
    b: str
    where: str = "--report"


class Has(NamedTuple):
    """``run``'s ``where`` (``stdout``, ``stderr`` or an argv flag naming a
    file) contains ``text``."""
    run: str
    text: str
    where: str = "stdout"


class Lacks(NamedTuple):
    """``run``'s ``where`` does not contain ``text``."""
    run: str
    text: str
    where: str = "stdout"


RUNS: Dict[str, Run] = {
    # -- baselines: the centralized online engine -------------------------
    "sor2": Run("run sor --procs 2 --report sor2.txt", 0),
    "sor4": Run("run sor --procs 4 --report sor4.txt", 0),
    "water4": Run("run water --procs 4 --report water4.txt", 1),
    "tsp4": Run("run tsp --procs 4 --report tsp4.txt", 1),
    "water8": Run("run water --procs 8 --report water8.txt", 1),
    "tsp8": Run("run tsp --procs 8 --report tsp8.txt", 1),
    "wsdeque8": Run("run wsdeque --procs 8 --report wsdeque8.txt", 1),
    "bfs8": Run("run bfs --procs 8 --report bfs8.txt", 1),
    "hashtab8": Run("run hashtab --procs 8 --report hashtab8.txt", 1),
    "hashtab16": Run("run hashtab --procs 16 --report hashtab16.txt", 1),
    "bfs16": Run("run bfs --procs 16 --report bfs16.txt", 1),
    "water16": Run("run water --procs 16 --report water16.txt", 1),
    # -- lossy network ----------------------------------------------------
    "water4-lossy-a": Run("run water --procs 4 --loss-rate 0.05 "
                          "--fault-seed 7 --report water4-lossy-a.txt", 1),
    "water4-lossy-b": Run("run water --procs 4 --loss-rate 0.05 "
                          "--fault-seed 7 --report water4-lossy-b.txt", 1),
    # -- node crashes, checkpoints, resume --------------------------------
    "water4-crashy": Run("run water --procs 4 --crash-rate 0.02 "
                         "--crash-seed 11 --checkpoint-dir ckpt-water4-crashy "
                         "--report water4-crashy.txt", 1),
    "tsp4-crashy": Run("run tsp --procs 4 --crash-rate 0.02 --crash-seed 11 "
                       "--checkpoint-dir ckpt-tsp4-crashy "
                       "--report tsp4-crashy.txt", 1),
    "tsp4-chaos": Run("run tsp --procs 4 --crash-rate 0.02 --crash-seed 2 "
                      "--loss-rate 0.05 --fault-seed 2 "
                      "--checkpoint-dir ckpt-tsp4-chaos "
                      "--report tsp4-chaos.txt", 1),
    "water4-ckpt": Run("run water --procs 4 --checkpoint-dir ckpt-water4 "
                       "--report water4-ckpt.txt", 1),
    "water4-resumed": Run("run water --procs 4 --resume-from ckpt-water4 "
                          "--report water4-resumed.txt", 1,
                          needs=("water4-ckpt",)),
    "sor4-resumed-water4": Run("run sor --procs 4 --resume-from "
                               "ckpt-water4", 3, needs=("water4-ckpt",)),
    # -- master failover --------------------------------------------------
    "water4-failover1": Run("run water --procs 4 --crash-at 0:1 "
                            "--master-failover --loss-rate 0.05 --fault-seed 7 "
                            "--checkpoint-dir ckpt-water4-failover1 "
                            "--report water4-failover1.txt", 1),
    "water4-failover2": Run("run water --procs 4 --crash-at 0:2 "
                            "--master-failover --loss-rate 0.05 --fault-seed 7 "
                            "--checkpoint-dir ckpt-water4-failover2 "
                            "--report water4-failover2.txt", 1),
    "tsp4-failover1": Run("run tsp --procs 4 --crash-at 0:1 "
                          "--master-failover --loss-rate 0.05 --fault-seed 7 "
                          "--checkpoint-dir ckpt-tsp4-failover1 "
                          "--report tsp4-failover1.txt", 1),
    "tsp4-failover2": Run("run tsp --procs 4 --crash-at 0:2 "
                          "--master-failover --loss-rate 0.05 --fault-seed 7 "
                          "--checkpoint-dir ckpt-tsp4-failover2 "
                          "--report tsp4-failover2.txt", 1),
    "sor4-failover1": Run("run sor --procs 4 --crash-at 0:1 "
                          "--master-failover --loss-rate 0.05 --fault-seed 7 "
                          "--checkpoint-dir ckpt-sor4-failover1 "
                          "--report sor4-failover1.txt", 0),
    "sor4-failover2": Run("run sor --procs 4 --crash-at 0:2 "
                          "--master-failover --loss-rate 0.05 --fault-seed 7 "
                          "--checkpoint-dir ckpt-sor4-failover2 "
                          "--report sor4-failover2.txt", 0),
    "sor4-failover-clean": Run("run sor --procs 4 --crash-at 0:1 "
                               "--master-failover --checkpoint-dir "
                               "ckpt-sor4-failover-clean "
                               "--report sor4-failover-clean.txt", 0),
    "sor4-crash-at-alone": Run("run sor --procs 4 --crash-at 0:1", 2),
    "wsdeque8-failover": Run("run wsdeque --procs 8 --crash-at 0:2 "
                             "--master-failover --checkpoint-dir "
                             "ckpt-wsdeque8-failover "
                             "--report wsdeque8-failover.txt", 1),
    "bfs8-failover": Run("run bfs --procs 8 --crash-at 0:2 --master-failover "
                         "--checkpoint-dir ckpt-bfs8-failover "
                         "--report bfs8-failover.txt", 1),
    "hashtab8-failover": Run("run hashtab --procs 8 --crash-at 0:2 "
                             "--master-failover --checkpoint-dir "
                             "ckpt-hashtab8-failover "
                             "--report hashtab8-failover.txt", 1),
    "hashtab16-failover-random": Run("run hashtab --procs 16 "
                                     "--master-failover --policy random", 1),
    # -- sharded detection ------------------------------------------------
    "water4-sharded": Run("run water --procs 4 --sharded-detection "
                          "--report water4-sharded.txt", 1),
    "tsp4-crash3": Run("run tsp --procs 4 --crash-rate 0.05 --crash-seed 3 "
                       "--report tsp4-crash3.txt", 0),
    "tsp4-sharded-crash3": Run("run tsp --procs 4 --sharded-detection "
                               "--crash-rate 0.05 --crash-seed 3 "
                               "--report tsp4-sharded-crash3.txt", 0),
    "tsp4-sharded-crash14": Run("run tsp --procs 4 --sharded-detection "
                                "--crash-rate 0.05 --crash-seed 14 "
                                "--checkpoint-dir ckpt-tsp4-sharded-crash14 "
                                "--report tsp4-sharded-crash14.txt", 1),
    "water8-sharded": Run("run water --procs 8 --sharded-detection "
                          "--report water8-sharded.txt", 1),
    "tsp8-sharded": Run("run tsp --procs 8 --sharded-detection "
                        "--report tsp8-sharded.txt", 1),
    "wsdeque8-sharded": Run("run wsdeque --procs 8 --sharded-detection "
                            "--report wsdeque8-sharded.txt", 1),
    "bfs8-sharded": Run("run bfs --procs 8 --sharded-detection "
                        "--report bfs8-sharded.txt", 1),
    "hashtab8-sharded": Run("run hashtab --procs 8 --sharded-detection "
                            "--report hashtab8-sharded.txt", 1),
    "hashtab16-sharded": Run("run hashtab --procs 16 --sharded-detection "
                             "--report hashtab16-sharded.txt", 1),
    "bfs16-sharded": Run("run bfs --procs 16 --sharded-detection "
                         "--report bfs16-sharded.txt", 1),
    "water16-sharded": Run("run water --procs 16 --sharded-detection "
                           "--report water16-sharded.txt", 1),
    "tsp8-sharded-lossy": Run("run tsp --procs 8 --sharded-detection "
                              "--loss-rate 0.05 --fault-seed 7 "
                              "--report tsp8-sharded-lossy.txt", 1),
    # -- the reference (paper-literal) detector ---------------------------
    "hashtab16-reference": Run("run hashtab --procs 16 --reference-detector "
                               "--report hashtab16-reference.txt", 1),
    "bfs16-reference": Run("run bfs --procs 16 --reference-detector "
                           "--report bfs16-reference.txt", 1),
    "water16-reference": Run("run water --procs 16 --reference-detector "
                             "--report water16-reference.txt", 1),
    # -- the coarse filter off --------------------------------------------
    "water8-nofilter": Run("run water --procs 8 --no-coarse-filter "
                           "--report water8-nofilter.txt", 1),
    "tsp8-nofilter": Run("run tsp --procs 8 --no-coarse-filter "
                         "--report tsp8-nofilter.txt", 1),
    "wsdeque8-nofilter": Run("run wsdeque --procs 8 --no-coarse-filter "
                             "--report wsdeque8-nofilter.txt", 1),
    "bfs8-nofilter": Run("run bfs --procs 8 --no-coarse-filter "
                         "--report bfs8-nofilter.txt", 1),
    "hashtab8-nofilter": Run("run hashtab --procs 8 --no-coarse-filter "
                             "--report hashtab8-nofilter.txt", 1),
    # -- record, then detect offline --------------------------------------
    "sor8-lossy": Run("run sor --procs 8 --loss-rate 0.05 --fault-seed 7 "
                      "--report sor8-lossy.txt", 0),
    "sor8-record-a": Run("run sor --procs 8 --loss-rate 0.05 --fault-seed 7 "
                         "--mode record --trace-file sor8-a.trace", 0),
    "sor8-record-b": Run("run sor --procs 8 --loss-rate 0.05 --fault-seed 7 "
                         "--mode record --trace-file sor8-b.trace", 0),
    "sor8-offline-sharded": Run("run sor --procs 8 --loss-rate 0.05 "
                                "--fault-seed 7 --sharded-detection "
                                "--mode detect-offline --trace-file "
                                "sor8-a.trace --report sor8-offline.txt", 0,
                                needs=("sor8-record-a",)),
    "sor8-offline-torn": Run("run sor --procs 8 --loss-rate 0.05 "
                             "--fault-seed 7 --mode detect-offline "
                             "--trace-file sor8-torn.trace", 3,
                             needs=("sor8-record-a",), tear="sor8-a.trace"),
    "sor8-offline-mismatch": Run("run sor --procs 8 --mode detect-offline "
                                 "--trace-file sor8-a.trace", 2,
                                 needs=("sor8-record-a",)),
    "sor8-record-crashy": Run("run sor --procs 8 --mode record --trace-file "
                              "sor8-crashy.trace --crash-rate 0.01", 2),
    "water4-record": Run("run water --procs 4 --mode record "
                         "--trace-file water4.trace", 0),
    "water4-offline": Run("run water --procs 4 --mode detect-offline "
                          "--trace-file water4.trace "
                          "--report water4-offline.txt", 1,
                          needs=("water4-record",)),
    "wsdeque8-record": Run("run wsdeque --procs 8 --mode record "
                           "--trace-file wsdeque8.trace", 0),
    "wsdeque8-offline": Run("run wsdeque --procs 8 --mode detect-offline "
                            "--trace-file wsdeque8.trace "
                            "--report wsdeque8-offline.txt", 1,
                            needs=("wsdeque8-record",)),
    "bfs8-record": Run("run bfs --procs 8 --mode record "
                       "--trace-file bfs8.trace", 0),
    "bfs8-offline": Run("run bfs --procs 8 --mode detect-offline "
                        "--trace-file bfs8.trace --report bfs8-offline.txt", 1,
                        needs=("bfs8-record",)),
    "hashtab8-record": Run("run hashtab --procs 8 --mode record "
                           "--trace-file hashtab8.trace", 0),
    "hashtab8-offline": Run("run hashtab --procs 8 --mode detect-offline "
                            "--trace-file hashtab8.trace "
                            "--report hashtab8-offline.txt", 1,
                            needs=("hashtab8-record",)),
    # -- the rest of the exit-code protocol, and other surfaces -----------
    "fft-trace-file-online": Run("run fft --trace-file t.log", 2),
    "water4-deadline": Run("run water --procs 4 --deadline 1e-9", 4),
    "sor8-paper-input": Run("run sor --procs 8 --paper-input", 0),
    "disasm-lowered": Run("disasm hashtab --instrumented --lowered", 0),
}


CELLS: Dict[str, List] = {
    # A lossy network changes no report, and a fault seed replays exactly.
    "lossy": [
        Same("water4-lossy-a", "water4-lossy-b"),
        Same("water4-lossy-a", "water4-lossy-b", "stdout"),
        Same("water4", "water4-lossy-a"),
        Has("water4-lossy-a", "network:"),
    ],
    # A crashed node restores from its barrier checkpoint.
    "crash": [
        Same("water4", "water4-crashy"),
        Has("water4-crashy", "crashes:"),
        Has("water4-crashy", "checkpoints:"),
        Same("tsp4", "tsp4-crashy"),
        Has("tsp4-crashy", "crashes:"),
        Has("tsp4-crashy", "checkpoints:"),
    ],
    # Crashes and losses at once, with checkpoints on disk.
    "chaos": [Same("tsp4", "tsp4-chaos")],
    # A resume reproduces the run; one that never reaches the directory's
    # cut (sor has fewer barriers than water) is refused, not "resumed".
    "resume": [
        Same("water4-ckpt", "water4-resumed"),
        Has("water4-resumed", "resumed from"),
        Has("sor4-resumed-water4", "never reached the resume cut", "stderr"),
        Lacks("sor4-resumed-water4", "resumed from"),
    ],
    # The coordinator dies at a barrier generation on a lossy network; the
    # elected successor replays the journal.
    "failover": [
        check
        for app in ("water4", "tsp4", "sor4")
        for gen in (1, 2)
        for check in (Same(app, f"{app}-failover{gen}"),
                      Has(f"{app}-failover{gen}", "failover: 1 election(s)"))
    ],
    "failover-reliable": [
        Same("sor4", "sor4-failover-clean"),
        Has("sor4-failover-clean", "failover: 1 election(s)"),
    ],
    "failover-irregular": [
        check
        for app in ("wsdeque8", "bfs8", "hashtab8")
        for check in (Same(app, f"{app}-failover"),
                      Has(f"{app}-failover", "failover: 1 election(s)"))
    ],
    # The journal's bytes budget: one append per commit, each report
    # encoded once.
    "failover-journal": [
        Has("hashtab16-failover-random", "39 journal write(s) (223808 bytes)"),
    ],
    "crash-at-needs-failover": [
        Has("sor4-crash-at-alone", "master-failover", "stderr"),
    ],
    "sharded": [
        Same("water4", "water4-sharded"),
        Same("water8", "water8-sharded"),
        Has("water8-sharded", "sharding:"),
        Same("tsp8", "tsp8-sharded"),
        Has("tsp8-sharded", "sharding:"),
    ],
    # Crashes under sharding.  Without checkpoints a crash loses interval
    # metadata (unverifiable entries, stdout only) the same way under both
    # engines; seed 14 kills a shard owner mid-detect, so its epochs fall
    # back to the coordinator, and the checkpoints restore every report.
    "sharded-crash": [
        Same("tsp4-crash3", "tsp4-sharded-crash3"),
        Same("tsp4", "tsp4-sharded-crash14"),
        Has("tsp4-sharded-crash14", "2 fallback(s)"),
    ],
    # hashtab and bfs synchronize by barriers only, so every process pair
    # of an epoch is one unordered block; water's locks make its blocks
    # bisect.
    "engines16": [
        Same(app, f"{app}-{engine}")
        for app in ("hashtab16", "bfs16", "water16")
        for engine in ("sharded", "reference")
    ],
    "filter": [
        check
        for app in ("water8", "tsp8")
        for check in (Same(f"{app}-nofilter", app),
                      Has(app, "filter:"),
                      Lacks(f"{app}-nofilter", "filter:"))
    ],
    # The hardest filter cell: digests ride the retransmitted scatter edges.
    "filter-sharded-lossy": [
        Same("tsp8-nofilter", "tsp8-sharded-lossy"),
        Has("tsp8-sharded-lossy", "filter:"),
        Has("tsp8-sharded-lossy", "sharding:"),
        Has("tsp8-sharded-lossy", "network:"),
    ],
    # The irregular apps' seeded heap races, under every pipeline.
    "irregular": [
        check
        for app in ("wsdeque8", "bfs8", "hashtab8")
        for check in (Same(app, f"{app}-sharded"),
                      Same(app, f"{app}-nofilter"),
                      Has(app, "DATA RACE", "--report"))
    ],
    # A lossy record run's trace is deterministic, and replays sharded to
    # the online report.
    "record-replay": [
        Same("sor8-record-a", "sor8-record-b", "--trace-file"),
        Same("sor8-lossy", "sor8-offline-sharded"),
        Has("sor8-record-a", "record:"),
        Has("sor8-offline-sharded", "replay:"),
        Has("sor8-offline-sharded", "sharding:"),
    ],
    "record-replay-apps": [
        Same(app, f"{app}-offline")
        for app in ("water4", "wsdeque8", "bfs8", "hashtab8")
    ],
    "trace-rejected": [
        Has("sor8-offline-torn", "torn or corrupt", "stderr"),
        Has("sor8-offline-mismatch", "different execution configuration",
            "stderr"),
        Has("sor8-record-crashy", "--crash-rate", "stderr"),
    ],
    # repro.exitcodes: 0 clean, 1 races, 2 config, 3 runtime, 4 deadline
    # (3 is checked by run sor8-offline-torn in cell trace-rejected).
    "exit-codes": [
        Lacks("sor2", "DATA RACE", "--report"),
        Has("water4", "DATA RACE", "--report"),
        Has("fft-trace-file-online", "configuration error", "stderr"),
        Has("water4-deadline", "deadline exceeded", "stderr"),
    ],
    "paper-input": [Has("sor8-paper-input", "no data races detected")],
    "disasm-lowered": [Has("disasm-lowered", "def ")],
}


def check_runs(check) -> Tuple[str, ...]:
    """The runs a check reads."""
    return (check.a, check.b) if isinstance(check, Same) else (check.run,)


def cell_runs(cell: str) -> List[str]:
    """Every run ``cell`` needs, its ``needs`` closure included, in table
    order (which puts each run after the runs it needs)."""
    wanted = set()
    todo = [name for check in CELLS[cell] for name in check_runs(check)]
    while todo:
        name = todo.pop()
        if name not in wanted:
            wanted.add(name)
            todo.extend(RUNS[name].needs)
    return [name for name in RUNS if name in wanted]


def argv(name: str) -> List[str]:
    return RUNS[name].argv.split()


def path_of(name: str, where: str) -> str:
    """The file holding run ``name``'s ``where``, relative to the out
    directory."""
    if where == "stdout":
        return f"{name}.out"
    if where == "stderr":
        return f"{name}.err"
    args = argv(name)
    return args[args.index(where) + 1]


def read(out: str, name: str, where: str) -> bytes:
    try:
        with open(os.path.join(out, path_of(name, where)), "rb") as f:
            return f.read()
    except OSError:
        return b""


def execute(name: str, out: str, env: Dict[str, str]) -> int:
    run = RUNS[name]
    if run.tear:
        with open(os.path.join(out, run.tear), "rb") as f:
            data = f.read()
        with open(os.path.join(out, path_of(name, "--trace-file")), "wb") as f:
            f.write(data[:-8])
    with open(os.path.join(out, f"{name}.out"), "wb") as stdout, \
            open(os.path.join(out, f"{name}.err"), "wb") as stderr:
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv(name)], cwd=out,
            env=env, stdout=stdout, stderr=stderr).returncode


def failure(check, out: str) -> str:
    """Why ``check`` fails in ``out``, or ``""`` when it holds."""
    if isinstance(check, Same):
        if read(out, check.a, check.where) != read(out, check.b, check.where):
            return (f"{check.where} of {check.b} differs from {check.a}'s "
                    f"({path_of(check.a, check.where)} vs "
                    f"{path_of(check.b, check.where)})")
        return ""
    found = check.text.encode() in read(out, check.run, check.where)
    if isinstance(check, Has) and not found:
        return f"{check.where} of {check.run} lacks {check.text!r}"
    if isinstance(check, Lacks) and found:
        return f"{check.where} of {check.run} contains {check.text!r}"
    return ""


def main(args: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="smoke.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("cells", nargs="*", metavar="CELL",
                        help=f"cells to run (default: all): {', '.join(CELLS)}")
    parser.add_argument("--out", metavar="DIR",
                        help="directory for the runs' files (must be empty "
                             "or absent; default: a temporary directory)")
    opts = parser.parse_args(args)
    unknown = [cell for cell in opts.cells if cell not in CELLS]
    if unknown:
        parser.error(f"unknown cell(s): {', '.join(unknown)}")
    cells = opts.cells or list(CELLS)
    if opts.out is None:
        out = tempfile.mkdtemp(prefix="smoke-")
    else:
        out = os.path.abspath(opts.out)
        if os.path.exists(out) and os.listdir(out):
            parser.error(f"--out {opts.out} is not empty")
        os.makedirs(out, exist_ok=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    names = {name for cell in cells for name in cell_runs(cell)}
    exited = {}
    start = time.monotonic()
    for name in RUNS:
        if name in names:
            exited[name] = execute(name, out, env)
    elapsed = time.monotonic() - start

    failed = 0
    for cell in cells:
        why = [f"{name} exited {exited[name]}, want {RUNS[name].exit}"
               for name in cell_runs(cell) if exited[name] != RUNS[name].exit]
        why += filter(None, (failure(check, out) for check in CELLS[cell]))
        failed += bool(why)
        print(f"{'FAIL' if why else 'ok':4s}  {cell}")
        for line in why:
            print(f"      {line}")
    print(f"smoke: {len(exited)} runs in {elapsed:.1f} s, "
          f"{len(cells) - failed}/{len(cells)} cells ok")
    if failed:
        print(f"smoke: the runs' files are in {out}")
    elif opts.out is None:
        shutil.rmtree(out, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
