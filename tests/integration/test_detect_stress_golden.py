"""Golden observables of the spine's two ``detect_stress`` cells.

``detect_stress_golden.json`` was captured on the commit *before* the
bit-parallel epoch join replaced the pair-at-a-time fast path (PR 13).
The join may change how the detector computes, never what it reports or
charges: the whole ``DetectorStats`` (per-epoch history included), the
report keys in order, every process's ledger total and the final virtual
time must stay exactly what the per-pair pipeline produced.
"""

import json
import os

import pytest

from benchmarks.spine.workloads import (SCHEDULE_SEED, STRESS_SPEC,
                                        StressParams)
from repro.dsm.cvm import CVM
from tests.helpers import stats_dict

with open(os.path.join(os.path.dirname(__file__),
                       "detect_stress_golden.json")) as f:
    GOLDEN = json.load(f)

#: Bisection probes the join performs beyond the golden figure.  The old
#: fast path sent epochs of <= 4096 modeled comparisons through the naive
#: search; the final barrier's epoch (one interval per process) cost it
#: one comparison per process pair, where the bisections probe twice.  The
#: sharded engine never took that detour.
EXTRA_PROBES = {"stress@32": 32 * 31 // 2, "stress@16-sharded": 0}


@pytest.mark.parametrize("label,nprocs,flags", [
    ("stress@32", 32, {}),
    ("stress@16-sharded", 16, dict(sharded_detection=True)),
])
def test_detect_stress_cell_matches_the_per_pair_pipeline(label, nprocs,
                                                          flags):
    golden = GOLDEN[label]
    system = CVM(STRESS_SPEC.config(nprocs=nprocs, seed=SCHEDULE_SEED,
                                    fault_seed=0, **flags))
    result = system.run(STRESS_SPEC.func, StressParams(1, 12, 2))
    assert stats_dict(result.detector_stats) == golden["stats"]
    assert [repr(r.key()) for r in result.races] == golden["report_keys"]
    assert [sum(ledger.totals.values()) for ledger in result.ledgers] == \
        golden["ledger_totals"]
    assert result.runtime_cycles == golden["runtime_cycles"]
    assert system.detector.actual_comparisons == \
        golden["actual_comparisons"] + EXTRA_PROBES[label]
