"""Checkpoint logs on disk: one append log per process, ``ckpt_p<pid>.log``.

A torn or corrupt log folds to its intact prefix, so a resume starts at
the last generation every process completed, and no delta is ever applied
to the wrong base.  The frame itself is fuzzed once, in
tests/test_durable.py; this is the checkpoint log's policy on top of it.
"""

import os
import shutil

import pytest

from repro.dsm.checkpoint import ResumePoint
from repro.dsm.cvm import CVM
from repro.errors import CheckpointError
from tests.helpers import small_config

NPROCS = 2


def _app(env):
    x = env.malloc(8, name="x")
    for step in range(2):
        env.store(x + env.pid, step)
        env.barrier()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A 2-process checkpoint directory and the full snapshots each
    process took during the run, in generation order."""
    d = str(tmp_path_factory.mktemp("ckpt"))
    system = CVM(small_config(nprocs=NPROCS, checkpoint_dir=d))
    manager = system.checkpoints
    take = manager.take
    taken = {pid: [] for pid in range(NPROCS)}

    def keeping(node, *args, **kwargs):
        record = take(node, *args, **kwargs)
        taken[node.pid].append(manager.latest(node.pid))
        return record

    manager.take = keeping
    system.run(_app)
    os.remove(os.path.join(d, "LOCK"))
    return d, taken


def _record_ends(data: bytes):
    """Byte offset just past each record (body line, hash line)."""
    newlines = [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
    return newlines[1::2]


def _resumes_at_the_intact_prefix(d, taken, pid, data, intact):
    """With ``pid``'s log replaced by ``data``, of which ``intact``
    records are whole, the resume cut is the last generation that log
    completed, and every node's snapshot there is the one the run took."""
    with open(os.path.join(d, f"ckpt_p{pid}.log"), "wb") as fh:
        fh.write(data)
    if intact == 0:
        with pytest.raises(CheckpointError, match="covers pids"):
            ResumePoint(d, NPROCS)
        return
    point = ResumePoint(d, NPROCS)
    assert point.generation == intact - 1
    for other in range(NPROCS):
        assert point.manager.latest(other) == taken[other][intact - 1]


@pytest.mark.parametrize("pid", range(NPROCS))
def test_log_cut_at_every_byte_folds_to_the_intact_prefix(written, pid,
                                                         tmp_path):
    src, taken = written
    d = str(tmp_path / "ckpt")
    shutil.copytree(src, d)
    with open(os.path.join(src, f"ckpt_p{pid}.log"), "rb") as fh:
        data = fh.read()
    ends = _record_ends(data)
    assert len(ends) == len(taken[pid]) >= 3 and ends[-1] == len(data)
    for cut in range(len(data) + 1):
        intact = sum(1 for end in ends if end <= cut)
        _resumes_at_the_intact_prefix(d, taken, pid, data[:cut], intact)


def test_log_with_any_one_byte_flipped_folds_to_the_records_before_it(
        written, tmp_path):
    src, taken = written
    d = str(tmp_path / "ckpt")
    shutil.copytree(src, d)
    with open(os.path.join(src, "ckpt_p1.log"), "rb") as fh:
        data = fh.read()
    ends = _record_ends(data)
    for i in range(len(data)):
        flipped = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
        intact = sum(1 for end in ends if end <= i)
        _resumes_at_the_intact_prefix(d, taken, 1, flipped, intact)


def test_a_log_of_another_process_is_refused(written, tmp_path):
    src, _taken = written
    d = str(tmp_path / "ckpt")
    shutil.copytree(src, d)
    shutil.copy(os.path.join(d, "ckpt_p0.log"), os.path.join(d, "ckpt_p1.log"))
    with pytest.raises(CheckpointError, match="record 0 .* of P1"):
        ResumePoint(d, NPROCS)
