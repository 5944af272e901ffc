"""Checkpoint-directory exclusivity: two runs must never share one.

Interleaved snapshot files from concurrent runs would corrupt both
histories silently, so the CheckpointManager takes an advisory lock on
``<dir>/LOCK`` and a second taker gets a :class:`ConfigError` naming
the holder.
"""

import os

import pytest

from repro.apps.registry import get_app
from repro.dsm.checkpoint import CheckpointManager
from repro.errors import ConfigError


def manager(directory):
    return CheckpointManager(directory=directory)


def test_second_taker_refused_and_names_holder(tmp_path):
    d = str(tmp_path / "ckpts")
    first = manager(d)
    try:
        with pytest.raises(ConfigError) as exc_info:
            manager(d)
        message = str(exc_info.value)
        assert "--checkpoint-dir" in message
        assert f"os-pid {os.getpid()}" in message  # who holds it
    finally:
        first.close()


def test_lock_released_on_close(tmp_path):
    d = str(tmp_path / "ckpts")
    manager(d).close()
    second = manager(d)  # relock after release succeeds
    second.close()


def test_memory_only_checkpointing_needs_no_lock(tmp_path):
    # No directory, no lock: in-memory checkpointing runs can share.
    a = manager(None)
    b = manager(None)
    a.close()
    b.close()


def test_full_run_collision_via_config(tmp_path):
    d = str(tmp_path / "ckpts")
    spec = get_app("queue_racy")
    cfg = spec.config(nprocs=3, checkpoint_dir=d)
    from repro.dsm.cvm import CVM
    system = CVM(cfg)  # holds the lock while alive
    try:
        with pytest.raises(ConfigError, match="already in use"):
            spec.run(nprocs=3, checkpoint_dir=d)
    finally:
        system.checkpoints.close()


def test_lock_released_after_run_completes(tmp_path):
    d = str(tmp_path / "ckpts")
    spec = get_app("queue_racy")
    spec.run(nprocs=3, checkpoint_dir=d)
    # The finished run closed its manager; a new run may reuse the dir.
    result = spec.run(nprocs=3, resume_from=d)
    assert result.races


def test_lock_file_ignored_by_loader(tmp_path):
    d = str(tmp_path / "ckpts")
    spec = get_app("queue_racy")
    spec.run(nprocs=3, checkpoint_dir=d)
    assert os.path.exists(os.path.join(d, "LOCK"))
    store = CheckpointManager.load_dir(d)  # must not trip on LOCK
    assert store.latest(0) is not None
