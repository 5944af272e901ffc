"""Command-line interface."""

import dataclasses
import hashlib
import os
import re

import pytest

from repro.apps.registry import get_app
from repro.cli import build_parser, main, render_summary

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_apps_lists_everything(capsys):
    rc, out = run_cli(capsys, "apps")
    assert rc == 0
    for name in ("fft", "sor", "tsp", "water", "queue_racy"):
        assert name in out


def test_run_racy_app(capsys):
    # Races found -> exit code 1 (the grep convention; see repro.exitcodes).
    rc, out = run_cli(capsys, "run", "water", "--procs", "4")
    assert rc == 1
    assert "data race(s):" in out
    assert "water_poteng" in out
    assert "slowdown" in out


def test_run_clean_app(capsys):
    rc, out = run_cli(capsys, "run", "sor", "--procs", "2")
    assert rc == 0
    assert "no data races detected" in out


def test_run_sor_at_the_papers_input_sizes_its_segment(capsys):
    """``--paper-input`` used to die inside P0: 512x512 x 2 grids do not
    fit the default 64 K-word segment.  The CLI now sizes the segment
    from SOR's declared footprint; default parameters keep the default."""
    spec = get_app("sor")
    assert spec.segment_words(spec.default_params, 8) == 1 << 16
    assert spec.segment_words(spec.paper_params, 8) == 1 << 19
    rc, out = run_cli(capsys, "run", "sor", "--procs", "8", "--paper-input")
    assert rc == 0
    assert "4096.0 KB shared" in out and "no data races detected" in out


def test_run_outgrowing_an_undeclared_footprint_is_a_config_error(
        capsys, monkeypatch):
    from repro.apps.registry import APPLICATIONS
    monkeypatch.setitem(APPLICATIONS, "sor", dataclasses.replace(
        get_app("sor"), footprint_words=None))
    rc = main(["run", "sor", "--procs", "8", "--paper-input"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err and "process P0 failed" not in err
    assert "--paper-input" in err and "segment_words" in err


def test_run_queue_forces_three_procs(capsys):
    rc, out = run_cli(capsys, "run", "queue_racy", "--procs", "8")
    assert rc == 1  # the fig. 5 queue races by design
    assert "3 simulated processes" in out


def test_run_mw_protocol(capsys):
    rc, out = run_cli(capsys, "run", "water", "--procs", "2",
                      "--protocol", "mw")
    assert rc == 1
    assert "(mw protocol" in out


def test_attribute(capsys):
    rc, out = run_cli(capsys, "attribute", "water", "--procs", "4")
    assert rc == 0
    assert "water_poteng" in out
    assert "unsynchronized-write" in out


def test_table2(capsys):
    rc, out = run_cli(capsys, "table2")
    assert rc == 0
    assert "Table 2" in out and "WATER" in out


def test_disasm_app_only(capsys):
    rc, out = run_cli(capsys, "disasm", "sor")
    assert rc == 0
    assert ".func main section=app" in out
    assert "section=library" not in out


def _disasm_choices():
    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices["disasm"]
    return next(a for a in sub._actions if a.dest == "app").choices


@pytest.mark.parametrize("app", _disasm_choices())
def test_disasm_every_choice(capsys, app):
    rc, out = run_cli(capsys, "disasm", app)
    assert rc == 0
    assert ".func main section=app" in out


@pytest.mark.parametrize("app, regalloc", [("hashtab", "linear"),
                                           ("sor", "naive")])
def test_disasm_defaults_to_the_allocator_the_binary_runs_under(
        capsys, app, regalloc):
    """A DSM app is listed as the DSM runs it (``linear``), a paper
    kernel as Table 2 counts it (``naive``)."""
    rc, default = run_cli(capsys, "disasm", app)
    assert rc == 0
    rc, explicit = run_cli(capsys, "disasm", app, "--regalloc", regalloc)
    assert rc == 0
    assert default == explicit
    other = {"linear": "naive", "naive": "linear"}[regalloc]
    assert run_cli(capsys, "disasm", app, "--regalloc", other)[1] != default


def test_disasm_instrumented(capsys):
    rc, out = run_cli(capsys, "disasm", "tsp", "--instrumented")
    assert rc == 0
    assert "call __race_analysis" in out


def test_disasm_lowered_annotates_every_statement(capsys):
    """``--lowered`` dumps the phase after the rewriter: the block
    source's trailing comments, read in order, are the listing."""
    argv = ("disasm", "hashtab", "--regalloc", "linear", "--instrumented")
    rc, listing = run_cli(capsys, *argv)
    assert rc == 0
    rc, lowered = run_cli(capsys, *argv, "--lowered")
    assert rc == 0
    instructions = [line.strip() for line in listing.splitlines()
                    if line and not line.startswith((".", ";"))]
    comments = [line.split("  # ", 1)[1] for line in lowered.splitlines()
                if "  # " in line]
    assert comments == instructions
    assert ".lowered main\n; slots: fp=0 gp=1 a0=2" in lowered
    assert "def b0(m, r, rd, wr):" in lowered
    assert "m.analysis_calls += 1; m.analysis_hook(" in lowered


def test_timeline(capsys):
    rc, out = run_cli(capsys, "timeline", "queue_racy")
    assert rc == 0
    assert "P0 |" in out and "happens-before edges" in out
    assert "race(s)" in out


#: ``repro timeline queue_racy``, byte for byte: lane notes, ``!`` marks,
#: edges and racy-pair overlaps.
QUEUE_RACY_TIMELINE = """\
P0 | [1! w:0,64]--[5! w:0,64]
P1 | [3! r:0]--[5! w:165,166 r:0,64]
P2 | [5! w:165,166,167…]

happens-before edges (release -> acquire):
  P1:3 -> P0:5
  P1:3 -> P2:5

concurrent racy pairs:
  P0:5 || P1:5 on words [0, 64]
  P1:5 || P2:5 on words [165, 166]

4 race(s); '!' marks intervals touching a racy word
"""


def test_timeline_queue_racy_golden(capsys):
    rc, out = run_cli(capsys, "timeline", "queue_racy")
    assert rc == 0
    assert out == QUEUE_RACY_TIMELINE


def test_timeline_water_golden(capsys):
    """986 lines, 18 concurrent racy pairs: pinned by digest."""
    rc, out = run_cli(capsys, "timeline", "water", "--procs", "4")
    assert rc == 0
    assert len(out.splitlines()) == 986
    assert out.count(" || ") == 18
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "711bcd9afe7df670479d0a85cc9d59cd420f0c53e22b29a99cc7b744f08fa103")


# ---------------------------------------------------------------------- #
# ``attribute`` and ``timeline`` share ``run``'s flags: each one they
# accept is honoured, and ``--report`` — which only ``run`` writes — is
# refused.
# ---------------------------------------------------------------------- #
def test_attribute_honours_first_races_only(capsys):
    spec = get_app("water")
    first = len(spec.run(nprocs=4, first_races_only=True).races)
    assert 0 < first < len(spec.run(nprocs=4).races)
    rc, out = run_cli(capsys, "attribute", "water", "--procs", "4",
                      "--first-races-only")
    assert rc == 0
    assert out.startswith(f"{first} races;")


def test_attribute_honours_paper_input(capsys, monkeypatch):
    import repro.replay
    seen = []

    def no_races(func, params, config, replay_config=None):
        seen.append(params)
        return repro.replay.AttributionReport([], {}, {}, 0, 0)

    monkeypatch.setattr(repro.replay, "attribute_races", no_races)
    rc, _out = run_cli(capsys, "attribute", "lu", "--paper-input")
    assert rc == 0
    assert seen == [get_app("lu").paper_params]
    assert seen != [get_app("lu").default_params]


def test_timeline_honours_paper_input(capsys, monkeypatch):
    from repro.dsm.cvm import CVM
    spec = get_app("lu")
    seen = []
    run = CVM.run

    def scaled_down(system, func, params):
        seen.append(params)
        return run(system, func, spec.default_params)

    monkeypatch.setattr(CVM, "run", scaled_down)
    rc, _out = run_cli(capsys, "timeline", "lu", "--procs", "2",
                       "--paper-input")
    assert rc == 0
    assert seen == [spec.paper_params]


@pytest.mark.parametrize("command", ["attribute", "timeline"])
def test_report_flag_belongs_to_run_only(command, capsys, tmp_path):
    path = tmp_path / "r.txt"
    with pytest.raises(SystemExit) as exc_info:
        main([command, "water", "--procs", "2", "--report", str(path)])
    assert exc_info.value.code == 2
    assert "--report" in capsys.readouterr().err
    rc, _out = run_cli(capsys, "run", "water", "--procs", "2",
                       "--report", str(path))
    assert rc == 1
    assert "water_poteng" in path.read_text()


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


#: A subcommand line each retired flag is appended to.
_RETIRED_FLAG_BASE = {"run": ["run", "water", "--procs", "2"],
                      "disasm": ["disasm", "tsp", "--instrumented"]}


@pytest.mark.parametrize("retired", [
    ["run", "--reference-access-path"], ["run", "--detection-shards", "2"],
    ["run", "--election-timeout", "5"], ["disasm", "--batched"],
    ["run", "--checkpoint-delta"], ["run", "--reference-detector"]])
def test_retired_run_flags_are_refused_by_argparse(retired, capsys):
    command, *flags = retired
    with pytest.raises(SystemExit) as exc_info:
        main([*_RETIRED_FLAG_BASE[command], *flags])
    assert exc_info.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_readme_run_flags_exist(capsys):
    """Every flag in the README's table of ``run`` options is one the
    ``run`` subparser accepts, so a retired flag cannot linger there."""
    with open(README, encoding="utf-8") as f:
        table = f.read().split("Flags shared by `run`", 1)[1]
    rows = table.split("|---|---|\n", 1)[1].split("\n\n", 1)[0].splitlines()
    documented = {flag for row in rows
                  for flag in re.findall(r"`(--[a-z-]+)", row.split("|")[1])}
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    accepted = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert len(documented) >= 20
    assert documented <= accepted, sorted(documented - accepted)


def test_config_error_maps_to_exit_code_2(capsys):
    # --trace-file without a two-phase mode is a ConfigError.
    rc = main(["run", "fft", "--procs", "2", "--trace-file", "/tmp/t.log"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--trace-file" in err


def test_torn_trace_maps_to_exit_code_3(capsys, tmp_path):
    """A runtime failure (here an unverifiable trace) exits 3, not 2."""
    trace = tmp_path / "sor.trace"
    rc, _out = run_cli(capsys, "run", "sor", "--procs", "2", "--mode",
                       "record", "--trace-file", str(trace))
    assert rc == 0
    trace.write_bytes(trace.read_bytes()[:-8])
    rc = main(["run", "sor", "--procs", "2", "--mode", "detect-offline",
               "--trace-file", str(trace)])
    assert rc == 3
    assert "torn or corrupt" in capsys.readouterr().err


def test_summary_degradation_line_follows_the_network_line():
    """``degradation:`` cannot be reached from the CLI (a lossy run that
    loses a bitmap round exhausts a page message first), so it is checked
    on a rendered result whose counters say rounds failed, against the
    text the line had before the summary became a table."""
    argv = "run sor --procs 2 --loss-rate 0.05 --fault-seed 7".split()
    args = build_parser().parse_args(argv)
    res = get_app("sor").run(nprocs=2, loss_rate=0.05, fault_seed=7)
    degraded = dataclasses.replace(res, metrics={
        **res.metrics, "core.detector.page_granularity_reports": 3,
        "core.detector.bitmap_rounds_failed": 2})
    assert not any("degradation" in line
                   for line in render_summary(args, res, 1.0))
    lines = render_summary(args, degraded, 1.0)
    at = next(i for i, line in enumerate(lines)
              if line.startswith("  network:"))
    assert lines[at + 1] == ("  degradation: 3 page-granularity report(s) "
                             "after 2 failed bitmap round(s)")
