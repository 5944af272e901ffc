"""Cross-run resume: ``--resume-from`` reproduces the uninterrupted run.

A checkpointed run persists one snapshot per (node, barrier generation).
A resumed run re-executes deterministically and, at the directory's
common covered generation, *validates* that its recomputed state matches
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


def test_resume_from_delta_directory(tmp_path):
    """Delta-encoded checkpoint directories resume identically (the
    chain replays into full snapshots first)."""
    d = str(tmp_path / "delta")
    spec = get_app(APP)
    original = spec.run(nprocs=NPROCS, checkpoint_dir=d,
                        checkpoint_delta=True)
    resumed = spec.run(nprocs=NPROCS, resume_from=d,
                       checkpoint_delta=True)
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.runtime_cycles == original.runtime_cycles


def test_resume_of_a_delta_directory_needs_the_delta_flag(tmp_path):
    """Delta and full checkpoints price different bytes, so the clocks of
    the two encodings differ: the mismatch is refused by name."""
    d = str(tmp_path / "delta")
    spec = get_app(APP)
    spec.run(nprocs=NPROCS, checkpoint_dir=d, checkpoint_delta=True)
    with pytest.raises(CheckpointError, match="with --checkpoint-delta"):
        spec.run(nprocs=NPROCS, resume_from=d)


def test_resume_of_a_full_directory_refuses_the_delta_flag(checkpointed):
    d, _original = checkpointed
    with pytest.raises(CheckpointError, match="without --checkpoint-delta"):
        get_app(APP).run(nprocs=NPROCS, resume_from=d, checkpoint_delta=True)


def test_resume_survives_a_run_killed_mid_checkpoint(checkpointed, tmp_path):
    """Checkpoints are published atomically (tmp + rename), so a run killed
    while writing P1's generation-3 file leaves ``ckpt_p1_g3.json.tmp``
    and no torn ``ckpt_p1_g3.json``: the loader ignores the leftover and
    the resume starts from the last cut every node completed."""
    import shutil
    d, original = checkpointed
    killed = str(tmp_path / "killed")
    shutil.copytree(d, killed)
    os.remove(os.path.join(killed, "LOCK"))
    cut = 3
    for name in os.listdir(killed):
        pid, gen = (int(x) for x in name[len("ckpt_p"):-len(".json")]
                    .split("_g"))
        if gen > cut or (gen == cut and pid >= 1):
            os.remove(os.path.join(killed, name))
    with open(os.path.join(d, f"ckpt_p1_g{cut}.json")) as fh:
        torn = fh.read()[:100]
    with open(os.path.join(killed, f"ckpt_p1_g{cut}.json.tmp"), "w") as fh:
        fh.write(torn)
    spec = get_app(APP)
    system = CVM(spec.config(nprocs=NPROCS, resume_from=killed))
    resumed = system.run(spec.func, spec.default_params)
    assert system.resume.generation == cut - 1
    assert system.resume.resumed_nodes == NPROCS
    assert _report_lines(resumed) == _report_lines(original)
    assert resumed.runtime_cycles == original.runtime_cycles
