"""Golden bytes of every durable record the repo writes.

``durable_golden.json`` was captured on the commit *before* the
hand-rolled copies of "canonical JSON + newline + BLAKE2b" (checkpoints,
coordinator journal, synchronization trace) were folded onto
:mod:`repro.durable`.  The fold moves mechanism only: every byte written
for a given run must stay what the old copies wrote — checkpoint files
unframed canonical JSON, the trace file without a trailing newline —
because ``nbytes``/``trace_bytes`` feed virtual-time charges and old
traces and checkpoint directories must stay readable.

Checkpoints later moved from one file per (pid, generation) to one append
log per pid whose records are those files' texts, framed.  The
``checkpoint_dir`` site reads each record's body back out of the logs and
keys its hash by the file name it was captured under,
``ckpt_p<pid>_g<generation>.json``, so the entry was kept as captured.

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

from repro import durable
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
    get_app("water").run(nprocs=4, checkpoint_dir=ckdir)
    shas = {}
    for name in sorted(os.listdir(ckdir)):
        if name == "LOCK":
            continue
        with open(os.path.join(ckdir, name), "rb") as fh:
            bodies, dropped, _intact = durable.parse_log(
                fh.read(), lambda body, _index: body)
        assert dropped == 0
        for body in bodies:
            rec = json.loads(body)
            shas[f"ckpt_p{rec['pid']}_g{rec['generation']}.json"] = _sha(body)
    return shas


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
