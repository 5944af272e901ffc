"""Where the detection and record benchmarks write, resolved from their
command lines alone (no benchmark runs): a ``--quick`` run goes to the
git-ignored smoke file, so a local smoke never overwrites the committed
full-run figures."""

from pathlib import Path

import pytest

from benchmarks import bench_detection_scaleout, bench_record


@pytest.mark.parametrize("module, full, smoke", [
    (bench_detection_scaleout, "BENCH_detection.json",
     "BENCH_scaleout_smoke.json"),
    (bench_record, "BENCH_record.json", "BENCH_record_smoke.json"),
])
def test_quick_runs_default_to_the_smoke_file(module, full, smoke):
    assert module.parse_args([]).output == full
    assert module.parse_args(["--quick"]).output == smoke
    assert module.parse_args(["--quick", "--output", "x.json"]).output \
        == "x.json"
    assert module.parse_args(["--output", "x.json"]).output == "x.json"
    gitignore = Path(__file__).resolve().parents[1] / ".gitignore"
    assert smoke in gitignore.read_text().splitlines()
