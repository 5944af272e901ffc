"""``repro.cli run``'s summary text, byte for byte.

Each case is one or more CLI runs in a fresh working directory (a record
run before its replay, a checkpointed run before its resume); together
they reach every line the summary can print from the CLI.  The expected
stdout and exit codes are in ``cli_summary_golden.json``.

Regenerate (only from a commit whose text is the reference) with
``PYTHONPATH=src python -m tests.test_cli_summary``.
"""

import json
import os
import sys

import pytest

from repro.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "cli_summary_golden.json")

CASES = {
    "plain": ["run queue_racy --procs 3"],
    "lossy": ["run sor --procs 2 --loss-rate 0.05 --fault-seed 7"],
    "crash-unverifiable": [
        "run queue_racy --procs 3 --crash-rate 0.05 --crash-seed 5"],
    "checkpoint-sharded-failover": [
        "run sor --procs 4 --crash-at 0:1 --master-failover "
        "--sharded-detection --checkpoint-dir ckpt"],
    "record-replay": [
        "run sor --procs 4 --mode record --trace-file sor.trace",
        "run sor --procs 4 --mode detect-offline --trace-file sor.trace"],
    "resume": [
        "run sor --procs 2 --checkpoint-dir ckpt",
        "run sor --procs 2 --resume-from ckpt"],
}


def run_case(name, capsys):
    """``[[exit code, stdout], ...]`` of the case's runs, in order."""
    out = []
    for argv in CASES[name]:
        rc = main(argv.split())
        out.append([rc, capsys.readouterr().out])
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_summary_text_is_pinned(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert run_case(name, capsys) == golden[name]


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile

    class Capture:
        def __init__(self, buf):
            self.buf = buf

        def readouterr(self):
            text = self.buf.getvalue()
            self.buf.seek(0)
            self.buf.truncate()
            return type("Captured", (), {"out": text})()

    golden = {}
    cwd = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    golden[name] = run_case(name, Capture(buf))
            finally:
                os.chdir(cwd)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
