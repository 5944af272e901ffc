"""The smoke table (``scripts/smoke.py``) is well formed.

The script itself spawns ~70 CLI runs; these checks spawn nothing, so a
retired flag or a misnamed run fails tier-1 instead of only the smoke run.
"""

import importlib.util
import os

import pytest

from repro.cli import build_parser

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "smoke.py")


def _load():
    spec = importlib.util.spec_from_file_location("smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


smoke = _load()


def test_every_run_parses():
    parser = build_parser()
    for name in smoke.RUNS:
        try:
            parser.parse_args(smoke.argv(name))
        except SystemExit:
            pytest.fail(f"run {name!r} does not parse: {smoke.RUNS[name].argv}")


def test_every_check_names_defined_runs():
    for cell, checks in smoke.CELLS.items():
        for check in checks:
            for name in smoke.check_runs(check):
                assert name in smoke.RUNS, (cell, check)


def test_every_need_is_an_earlier_run():
    order = list(smoke.RUNS)
    for name, run in smoke.RUNS.items():
        for need in run.needs:
            assert order.index(need) < order.index(name), (name, need)


def test_checked_files_are_named_by_the_argv():
    for checks in smoke.CELLS.values():
        for check in checks:
            for name in smoke.check_runs(check):
                smoke.path_of(name, check.where)
    for name, run in smoke.RUNS.items():
        if run.tear:
            smoke.path_of(name, "--trace-file")


def test_no_two_runs_share_an_argv():
    argvs = [run.argv.split() for run in smoke.RUNS.values()]
    assert len({tuple(a) for a in argvs}) == len(argvs)


def test_every_cell_has_a_check():
    assert smoke.CELLS
    for cell, checks in smoke.CELLS.items():
        assert checks, cell


def test_every_run_is_in_a_cell():
    used = {name for cell in smoke.CELLS for name in smoke.cell_runs(cell)}
    assert used == set(smoke.RUNS)
