"""Checks of the spine benchmark itself.  Not part of the tier-1 suite
(``testpaths`` is ``tests``); run explicitly, it takes about a minute:

    python -m pytest benchmarks/spine
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick`` run of every workload: (the result objects the
    children printed last, the ``--out`` records by workload)."""
    out = tmp_path_factory.mktemp("spine") / "quick.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stdout
    printed = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith('{"correct"')]
    with open(out) as f:
        return printed, json.load(f)["workloads"]


def test_benchmark_json_is_within_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_workloads_match_the_code(bench):
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    assert bench["run_seconds"] == RUN_SECONDS


def test_every_metric_is_printed_with_its_unit(bench, quick):
    printed, _records = quick
    assert len(printed) == len(bench["workloads"])
    for result in printed:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert metric["name"] in result["metrics"], metric["name"]
            assert (result["metrics"][metric["name"]]["unit"]
                    == metric["unit"]), metric["name"]
        for name in result["metrics"]:
            assert NAME.fullmatch(name), name
        for metric in bench["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] != 0


def test_reps_are_clean_and_tracing_changes_nothing(quick):
    _printed, records = quick
    for name, record in records.items():
        assert record["error_rate"] == 0, name
        assert record["traced_fingerprint"] == record["sim_fingerprint"]
        coverage = record["per_layer"]["trace.coverage"]["value"]
        assert 0.9 <= coverage <= 1.1, (name, coverage)


def test_layers_dominate_where_intended(quick):
    _printed, records = quick
    layer = {name: {k: m["value"] for k, m in rec["per_layer"].items()}
             for name, rec in records.items()}
    assert layer["detect_stress"]["core.detector.share"] >= 0.6
    assert layer["range_sweep"]["core.detector.share"] <= 0.05
    for name, values in layer.items():
        durable = name == "durable_lossy"
        assert (values["net.reliable.retransmits"] > 0) == durable
        assert (values["dsm.checkpoint.bytes_written"] > 0) == durable
        assert values["sim.scheduler.affinity_penalty"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload",
         "lock_churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
