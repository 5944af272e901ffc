"""A structural memory budget for a traced run.

With ``track_access_trace`` a run keeps its access trace packed: two
machine words per event in one ``array``, no Python object per access.
Default Water at 8 processes records 18,434 events, and what the access
layer (``dsm/env.py``) allocated and the finished run still holds stays
within 24 bytes per event under ``tracemalloc`` — 17 now, where a tuple
per event (the trace's earlier form) held 96.
"""

import tracemalloc

from repro.apps.registry import get_app
from repro.dsm import env
from repro.dsm.cvm import CVM

#: Ceiling on what the access layer holds per trace event after a run.
BYTES_PER_EVENT = 24


def test_a_traced_run_holds_its_trace_packed():
    spec = get_app("water")
    tracemalloc.start()
    try:
        system = CVM(spec.config(nprocs=8, seed=0, track_access_trace=True))
        result = system.run(spec.func, spec.default_params)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, env.__file__)])
    finally:
        tracemalloc.stop()
    assert len(result.access_trace) == 18_434
    size = sum(stat.size for stat in held.statistics("filename"))
    assert size <= BYTES_PER_EVENT * len(result.access_trace), size
