"""Golden observables of the spine's access-heavy cells, per hook config.

``access_golden.json`` was captured on the commit *before* the per-access
chain was rebuilt (PR 14: indexed ledger, int-backed bitmaps, one fused
``Env`` engine).  On that commit the three configurations below ran three
different engines — the fast one (default), and the general chunked one
whenever tracing or crash injection was on.  They now all run the one
production engine, which may change how an access is charged and recorded,
never what: report keys, ``DetectorStats``, every process's ledger per
category, the final virtual time, traffic, the instrumentation counters,
the access trace and the crash counters must stay exactly what the old
engines produced.

The ``crash`` cells' ``recovery`` ledgers and final virtual times were
re-captured when the full checkpoint encoding was retired: their
in-memory checkpoints now price delta records (fewer bytes written), and
nothing else in those cells moved.

``irregular_golden.json`` holds the three ``irregular_scalar`` cells —
the apps whose every access is issued by the mini-ISA machine — in the
default configuration, captured on the commit before that machine's step
interpreter was replaced by lowered basic-block code (PR 18).  Their
thousands of report keys are stored as a count and a digest.

Regenerate (only from a commit whose behaviour is the reference) with
``PYTHONPATH=src python -m tests.integration.test_access_golden
[access|irregular]``.
"""

import hashlib
import json
import os

import pytest

from benchmarks.spine.workloads import BY_NAME, spec_of
from repro.dsm.cvm import CVM
from tests.helpers import stats_dict

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "access_golden.json")
IRREGULAR_PATH = os.path.join(os.path.dirname(__file__),
                              "irregular_golden.json")

CELLS = {cell.label: cell
         for workload in ("lock_churn", "range_sweep")
         for cell in BY_NAME[workload].cells}
IRREGULAR = {cell.label: cell for cell in BY_NAME["irregular_scalar"].cells}
#: One entry per engine of the parent commit.
HOOKS = {
    "default": {},
    "trace": dict(track_access_trace=True),
    "crash": dict(crash_rate=0.01, crash_seed=7, checkpoint=True),
}


def observe(label: str, hooks: str) -> dict:
    cell = CELLS.get(label) or IRREGULAR[label]
    spec = spec_of(cell.app)
    cfg = spec.config(nprocs=cell.nprocs, **cell.config_flags(0, ""),
                      **HOOKS[hooks])
    params = cell.params if cell.params is not None else spec.default_params
    result = CVM(cfg).run(spec.func, params)
    trace = hashlib.blake2b(digest_size=16)
    for event in result.access_trace:
        trace.update(repr(tuple(event)).encode())
    return {
        "report_keys": [repr(r.key()) for r in result.races],
        "stats": stats_dict(result.detector_stats),
        "ledgers": [{cat.value: cycles
                     for cat, cycles in ledger.totals.items()}
                    for ledger in result.ledgers],
        "runtime_cycles": result.runtime_cycles,
        "messages": result.traffic.total_messages,
        "bytes": result.traffic.total_bytes,
        "shared_instr_calls": result.metrics["dsm.env.words"],
        "private_instr_calls": result.metrics["dsm.env.private_words"],
        "trace_events": len(result.access_trace),
        "trace_digest": trace.hexdigest(),
        "crashes": result.crash_stats.crashes,
    }


@pytest.mark.parametrize("hooks", sorted(HOOKS))
@pytest.mark.parametrize("label", sorted(CELLS))
def test_cell_matches_the_three_engine_parent(label, hooks):
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)[label][hooks]
    # Through JSON so both sides carry the same float and key types.
    assert json.loads(json.dumps(observe(label, hooks))) == golden


def observe_irregular(label: str) -> dict:
    seen = observe(label, "default")
    keys = seen.pop("report_keys")
    seen["reports"] = len(keys)
    seen["report_digest"] = hashlib.blake2b(
        "\n".join(keys).encode(), digest_size=16).hexdigest()
    return seen


@pytest.mark.parametrize("label", sorted(IRREGULAR))
def test_irregular_cell_matches_the_step_interpreter_parent(label):
    with open(IRREGULAR_PATH) as f:
        golden = json.load(f)[label]
    assert json.loads(json.dumps(observe_irregular(label))) == golden


def _write(path: str, golden: dict) -> None:
    with open(path, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    import sys
    which = sys.argv[1:] or ["access", "irregular"]
    if "access" in which:
        _write(GOLDEN_PATH, {label: {hooks: observe(label, hooks)
                                     for hooks in sorted(HOOKS)}
                             for label in sorted(CELLS)})
    if "irregular" in which:
        _write(IRREGULAR_PATH, {label: observe_irregular(label)
                                for label in sorted(IRREGULAR)})
