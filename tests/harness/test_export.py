"""JSON/CSV export of experiment artifacts."""

import csv
import json

import pytest

from repro.harness.export import export_csv, export_json, results_to_dict


def test_results_to_dict_structure(ctx, results):
    data = results_to_dict(results)
    assert set(data) == {"table1", "table2", "table3", "figure3",
                         "figure4", "races", "avg_slowdown"}
    assert {row["app"] for row in data["table1"]} == set(ctx.app_names)
    # table2 always covers the four binaries (static artifact).
    assert len(data["table2"]) == 4
    assert data["races"]["tsp"], "TSP races present in export"
    assert all(r["symbol"].startswith("tsp_bound")
               for r in data["races"]["tsp"])


def test_export_json_roundtrip(results, tmp_path):
    path = tmp_path / "results.json"
    export_json(results, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["avg_slowdown"] == pytest.approx(results.avg_slowdown)
    assert loaded["figure4"][0]["slowdowns"]["2"] > 1


def test_export_csv_files(ctx, results, tmp_path):
    paths = export_csv(results, str(tmp_path / "csv"))
    assert len(paths) == 5
    with open([p for p in paths if p.endswith("table1.csv")][0]) as f:
        rows = list(csv.DictReader(f))
    assert {r["app"] for r in rows} == set(ctx.app_names)
    assert all(float(r["slowdown"]) > 1 for r in rows)
    with open([p for p in paths if p.endswith("figure3.csv")][0]) as f:
        rows = list(csv.DictReader(f))
    assert "proc_call" in rows[0]
