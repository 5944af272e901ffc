"""Golden bytes of every durable record the repo writes.

``durable_golden.json`` was captured on the commit *before* the
hand-rolled copies of "canonical JSON + newline + BLAKE2b" (checkpoints,
coordinator journal, synchronization trace) were folded onto
:mod:`repro.durable`.  The fold moves mechanism only: every byte written
for a given run must stay what the old copies wrote — checkpoint files
unframed canonical JSON, the trace file without a trailing newline —
because ``nbytes``/``trace_bytes`` feed virtual-time charges and old
traces and checkpoint directories must stay readable.

The ``coordinator_journal`` entry was re-captured when the journal
became an append log of the detector's commit records (its bytes and its
byte counters fell on purpose; its failover counts did not move).

The checkpoint directory's ``LOCK`` file is left out: it holds the writing
process's OS pid.

Regenerate (only from a commit whose bytes are the reference) with
``PYTHONPATH=src python -m tests.integration.test_durable_golden``.
"""

import dataclasses
import hashlib
import json
import os
import tempfile

import pytest

from repro.apps.registry import get_app
from repro.dsm.cvm import CVM

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "durable_golden.json")


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _sha_file(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def checkpoint_dir(tmp: str) -> dict:
    ckdir = os.path.join(tmp, "ckpt")
    get_app("water").run(nprocs=4, checkpoint_dir=ckdir,
                         checkpoint_delta=True)
    return {name: _sha_file(os.path.join(ckdir, name))
            for name in sorted(os.listdir(ckdir)) if name != "LOCK"}


def record_trace(tmp: str) -> dict:
    path = os.path.join(tmp, "water.trace")
    result = get_app("water").run(nprocs=4, mode="record", trace_file=path)
    return {"sha": _sha_file(path),
            "trace_bytes": result.metrics["replay.trace.bytes"]}


def coordinator_journal(tmp: str) -> dict:
    spec = get_app("water")
    cfg = spec.config(nprocs=4, master_failover=True, crash_at=((0, 1),))
    system = CVM(cfg)
    result = system.run(spec.func, spec.default_params)
    return {"sha": _sha(bytes(system.coordinator._journal)),
            "failover": dataclasses.asdict(result.failover_stats)}


SITES = {
    "checkpoint_dir": checkpoint_dir,
    "record_trace": record_trace,
    "coordinator_journal": coordinator_journal,
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_bytes_match_the_parent(site, tmp_path):
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)[site]
    assert SITES[site](str(tmp_path)) == golden


if __name__ == "__main__":
    observed = {}
    for site in sorted(SITES):
        with tempfile.TemporaryDirectory() as tmp:
            observed[site] = SITES[site](tmp)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(observed, f, indent=1, sort_keys=True)
        f.write("\n")
