"""Cross-run resume: ``--resume-from`` reproduces the uninterrupted run.

A checkpointed run appends one record per barrier generation to each
node's log.  A resumed run re-executes deterministically and, at the
latest generation every log reaches, *validates* that its recomputed
state matches
the stored snapshots byte for byte before reinstalling them — so a
resume under a changed configuration fails loudly instead of silently
diverging, and a successful resume's report is byte-identical to the
original's.
"""

import os

import pytest

from repro.apps.registry import get_app
from repro.dsm.cvm import CVM
from repro.errors import CheckpointError

APP = "water"
NPROCS = 4


def _report_lines(result):
    return sorted(str(r) for r in result.races)


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("ckpts"))
    result = get_app(APP).run(nprocs=NPROCS, checkpoint_dir=d)
    return d, result


def test_resume_reproduces_report_byte_identically(checkpointed):
    d, original = checkpointed
    resumed = get_app(APP).run(nprocs=NPROCS, resume_from=d)
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.runtime_cycles == original.runtime_cycles
    assert resumed.detector_stats == original.detector_stats
    assert (resumed.metrics["dsm.env.words"]
            == original.metrics["dsm.env.words"])


def test_resume_installs_every_node(checkpointed):
    d, _original = checkpointed
    spec = get_app(APP)
    cfg = spec.config(nprocs=NPROCS, resume_from=d)
    system = CVM(cfg)
    system.run(spec.func, spec.default_params)
    assert system.resume.resumed_nodes == NPROCS


def test_resume_via_cli_flag(checkpointed, tmp_path):
    d, original = checkpointed
    from repro.cli import main
    orig_path = tmp_path / "orig.txt"
    res_path = tmp_path / "resumed.txt"
    orig_path.write_text(
        "".join(line + "\n" for line in _report_lines(original)))
    rc = main(["run", APP, "--procs", str(NPROCS),
               "--resume-from", d, "--report", str(res_path)])
    assert rc == 1  # water races -> exit code 1 (repro.exitcodes)
    assert res_path.read_text() == orig_path.read_text()


def test_resume_with_wrong_nprocs_rejected(checkpointed):
    d, _original = checkpointed
    with pytest.raises(CheckpointError):
        get_app(APP).run(nprocs=NPROCS * 2, resume_from=d)


def test_resume_from_empty_directory_rejected(tmp_path):
    empty = str(tmp_path / "nothing")
    os.makedirs(empty)
    with pytest.raises(CheckpointError):
        get_app(APP).run(nprocs=NPROCS, resume_from=empty)


def test_resume_with_diverging_config_rejected(checkpointed):
    """A resumed run validates recomputed state against the snapshots;
    a different scheduling seed diverges and must be caught, not
    silently installed."""
    d, _original = checkpointed
    from repro.errors import ProcessFailure
    with pytest.raises(ProcessFailure, match="diverged") as exc_info:
        get_app(APP).run(nprocs=NPROCS, resume_from=d, seed=1,
                         policy="random")
    assert isinstance(exc_info.value.__cause__, CheckpointError)


def test_resume_from_delta_directory(checkpointed, tmp_path):
    """Each log is a base record, then deltas.  A run resuming from the
    directory it also writes (``--checkpoint-dir`` equal to
    ``--resume-from``) replays every chain before it starts the logs over,
    and rewrites them byte for byte."""
    import shutil
    d, original = checkpointed
    again = str(tmp_path / "again")
    shutil.copytree(d, again)
    resumed = get_app(APP).run(nprocs=NPROCS, resume_from=again,
                               checkpoint_dir=again)
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.runtime_cycles == original.runtime_cycles
    for pid in range(NPROCS):
        name = f"ckpt_p{pid}.log"
        with open(os.path.join(d, name), "rb") as a, \
                open(os.path.join(again, name), "rb") as b:
            assert a.read() == b.read(), name


def test_resume_of_an_old_format_directory_is_refused(tmp_path, capsys):
    """The one-file-per-generation layout is refused by name (exit 3),
    not read as an empty directory."""
    from repro.cli import main
    d = tmp_path / "old"
    d.mkdir()
    (d / "ckpt_p0_g0.json").write_text("{}")
    with pytest.raises(CheckpointError, match="'ckpt_p0_g0.json'.*older"):
        get_app(APP).run(nprocs=NPROCS, resume_from=str(d))
    assert main(["run", APP, "--procs", str(NPROCS),
                 "--resume-from", str(d)]) == 3
    assert "ckpt_p0_g0.json" in capsys.readouterr().err


def _listing(d):
    return {name: (d / name).read_bytes() for name in os.listdir(d)
            if name != "LOCK"}


def test_checkpoint_dir_holding_an_old_format_file_is_refused(tmp_path,
                                                              capsys):
    """A run would write logs beside the older file and every resume of
    the directory would then be refused: the writer refuses it up front,
    in the reader's words, and writes nothing."""
    from repro.cli import main
    d = tmp_path / "old"
    d.mkdir()
    (d / "ckpt_p0_g0.json").write_text("{}")
    with pytest.raises(CheckpointError, match="'ckpt_p0_g0.json'.*older"):
        get_app("sor").run(nprocs=2, checkpoint_dir=str(d))
    assert main(["run", "sor", "--procs", "2",
                 "--checkpoint-dir", str(d)]) == 3
    assert "'ckpt_p0_g0.json', a per-generation checkpoint file of an " \
        "older format" in capsys.readouterr().err
    assert _listing(d) == {"ckpt_p0_g0.json": b"{}"}


def test_checkpoint_dir_holding_a_wider_runs_logs_is_refused(tmp_path,
                                                            capsys):
    """A 2-process run into a 4-process run's directory would leave
    ``ckpt_p2.log`` and ``ckpt_p3.log`` behind, and a 2-process resume
    of it would be refused for covering pids [0, 1, 2, 3]: the writer
    refuses the directory up front, naming the log, and leaves the
    4-process run's logs as they were (it still resumes)."""
    from repro.cli import main
    d = tmp_path / "wide"
    get_app("sor").run(nprocs=4, checkpoint_dir=str(d))
    before = _listing(d)
    with pytest.raises(CheckpointError,
                       match="'ckpt_p2.log', the log of P2, but the run "
                             "has nprocs=2"):
        get_app("sor").run(nprocs=2, checkpoint_dir=str(d))
    assert main(["run", "sor", "--procs", "3",
                 "--checkpoint-dir", str(d)]) == 3
    assert "'ckpt_p3.log', the log of P3" in capsys.readouterr().err
    assert _listing(d) == before
    get_app("sor").run(nprocs=4, resume_from=str(d))
    # The same width rewrites the directory, and so may a resume into it.
    get_app("sor").run(nprocs=4, resume_from=str(d), checkpoint_dir=str(d))
    assert _listing(d) == before


def test_resume_that_never_reaches_its_cut_is_refused(checkpointed):
    """sor completes 7 barriers and water's cut is generation 11: the run
    never installs a node, so it did not resume — a runtime failure
    naming both generations, not a report that says "resumed"."""
    d, _original = checkpointed
    with pytest.raises(CheckpointError,
                       match="never reached .* generation 7, .* 11"):
        get_app("sor").run(nprocs=NPROCS, resume_from=d)


def test_resume_survives_a_run_killed_mid_checkpoint(checkpointed, tmp_path):
    """A run killed while appending P1's generation-3 record leaves that
    record torn at the end of P1's log, P0's log one record ahead and the
    others one behind: the loader drops the torn tail and the resume
    starts from the last cut every node completed."""
    import shutil
    d, original = checkpointed
    killed = str(tmp_path / "killed")
    shutil.copytree(d, killed)
    os.remove(os.path.join(killed, "LOCK"))
    cut = 3
    for pid in range(NPROCS):
        path = os.path.join(killed, f"ckpt_p{pid}.log")
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        keep = 2 * (cut + (pid == 0))  # two lines (body, hash) a record
        data = b"".join(line + b"\n" for line in lines[:keep])
        if pid == 1:
            data += lines[keep][:100]
        with open(path, "wb") as fh:
            fh.write(data)
    spec = get_app(APP)
    system = CVM(spec.config(nprocs=NPROCS, resume_from=killed))
    resumed = system.run(spec.func, spec.default_params)
    assert system.resume.generation == cut - 1
    assert system.resume.resumed_nodes == NPROCS
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.runtime_cycles == original.runtime_cycles
