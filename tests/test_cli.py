"""Command-line interface."""

import dataclasses
import os
import re

import pytest

from repro.apps.registry import get_app
from repro.cli import build_parser, main

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
    ["run", "--election-timeout", "5"], ["disasm", "--batched"]])
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


def test_fleet_submit_and_status(capsys, tmp_path):
    spool = str(tmp_path / "spool")
    rc, out = run_cli(capsys, "fleet", "submit", "--spool", spool,
                      "queue_racy", "--seeds", "0:3", "--mode", "record",
                      "--trace-file", str(tmp_path / "t.log"))
    assert rc == 0
    assert out.count("submitted job-") == 3
    assert "priority class 0" in out  # record rides the cheapest class
    rc, out = run_cli(capsys, "fleet", "status", "--spool", spool)
    assert rc == 0
    assert "spooled (awaiting ingestion): 3" in out


def test_fleet_submit_backpressure_exit_code_3(capsys, tmp_path):
    spool = str(tmp_path / "spool")
    rc, _out = run_cli(capsys, "fleet", "submit", "--spool", spool,
                       "fft", "--seeds", "0:2", "--queue-limit", "2")
    assert rc == 0
    rc = main(["fleet", "submit", "--spool", spool, "fft",
               "--queue-limit", "2"])
    assert rc == 3  # AdmissionError: transient backpressure, not config
    assert "backpressure" in capsys.readouterr().err


def test_fleet_submit_rejects_unknown_override(capsys, tmp_path):
    rc = main(["fleet", "submit", "--spool", str(tmp_path / "s"),
               "fft", "--set", "warp_speed=9"])
    assert rc == 3
    assert "unknown DsmConfig override" in capsys.readouterr().err


def test_fleet_submit_refuses_a_retired_config_field_by_name(capsys,
                                                            tmp_path):
    """The accepted override keys derive from ``DsmConfig``'s fields, so
    a retired knob is refused at submit time, named."""
    rc = main(["fleet", "submit", "--spool", str(tmp_path / "s"),
               "fft", "--set", "access_fast_path=false"])
    assert rc == 3
    assert "['access_fast_path']" in capsys.readouterr().err


def test_fleet_drain_touches_marker(capsys, tmp_path):
    spool = tmp_path / "spool"
    rc, out = run_cli(capsys, "fleet", "drain", "--spool", str(spool))
    assert rc == 0
    assert (spool / "DRAIN").exists()


def test_fleet_serve_batch(capsys, tmp_path):
    spool = str(tmp_path / "spool")
    run_cli(capsys, "fleet", "submit", "--spool", spool, "queue_racy")
    rc, out = run_cli(capsys, "fleet", "serve", "--spool", spool,
                      "--slots", "1", "--drain-on-empty",
                      "--poll-interval", "0.02")
    assert rc == 0
    assert "drained" in out and "Fleet jobs" in out
    assert "queue_racy" in out
