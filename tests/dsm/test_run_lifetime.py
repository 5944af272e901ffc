"""A finished run is freed when its caller drops it.

``CVM`` owns its collaborators and nothing they hold owns it back, so
the objects of one run — page copies, intervals, reports, traces — form
a tree that reference counting frees the moment the caller drops the
system and its result.  A single back-reference (a collaborator keeping
the facade, a bound method of the facade left on a process, a closure
or machine referring to itself) would instead make the whole run one
reference cycle, resident until the next full ``gc`` pass.

Each case runs with ``gc`` disabled, drops the ``CVM`` and its
``RunResult``, and asserts that ``gc.collect()`` then finds nothing.
"""

import gc
import traceback

import pytest

from repro.apps import bfs, hashtab, wsdeque
from repro.apps.dsl import compiled_image
from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.dsm.cvm import CVM
from repro.errors import ProcessFailure

NPROCS = 4

#: Water under each configuration that wires in a layer of its own.
WATER_CASES = {
    "failover": dict(master_failover=True, crash_at=((0, 2),),
                     checkpoint=True),
    "crash_at": dict(crash_at=((1, 1),)),
    "checkpoint_dir": dict(checkpoint_dir="{tmp}/ckpt"),
    "sharded": dict(sharded_detection=True),
    "mw": dict(protocol="mw"),
    "lossy": dict(loss_rate=0.05, duplicate_rate=0.05),
    "consolidation": dict(consolidation_interval=4),
    "access_trace": dict(track_access_trace=True),
    "detection_off": dict(detection=False),
}


@pytest.fixture(scope="module", autouse=True)
def warm_compile_cache():
    """Compile the DSL programs once up front: the cached images (and
    the compiler's own transient garbage) belong to no run."""
    for module in (bfs, hashtab, wsdeque):
        compiled_image(module.__name__.rsplit(".", 1)[-1], module.SOURCE)
    gc.collect()


def cyclic_garbage_after(app, **flags):
    """Run ``app`` at ``NPROCS`` with ``gc`` off, drop everything the run
    returned, and return what ``gc.collect()`` then finds."""
    spec = get_app(app)
    gc.collect()
    gc.disable()
    try:
        system = CVM(spec.config(nprocs=NPROCS, **flags))
        result = system.run(spec.func, spec.default_params)
        del system, result
        return gc.collect()
    finally:
        gc.enable()


def with_tmp(flags, tmp_path):
    return {key: value.format(tmp=tmp_path) if isinstance(value, str)
            else value for key, value in flags.items()}


@pytest.mark.parametrize("app", sorted(APPLICATIONS) + sorted(EXTRAS))
def test_every_app_leaves_no_cycle(app):
    assert cyclic_garbage_after(app) == 0


@pytest.mark.parametrize("case", sorted(WATER_CASES))
def test_water_leaves_no_cycle(case, tmp_path):
    assert cyclic_garbage_after(
        "water", **with_tmp(WATER_CASES[case], tmp_path)) == 0


def test_record_and_detect_offline_leave_no_cycle(tmp_path):
    trace = str(tmp_path / "water.trace")
    assert cyclic_garbage_after("water", mode="record",
                                trace_file=trace) == 0
    assert cyclic_garbage_after("water", mode="detect-offline",
                                trace_file=trace) == 0


def test_resumed_run_leaves_no_cycle(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    get_app("water").run(nprocs=NPROCS, checkpoint_dir=ckpt)
    assert cyclic_garbage_after("water", resume_from=ckpt) == 0


def test_hashtab_under_master_failover_leaves_no_cycle():
    assert cyclic_garbage_after("hashtab", master_failover=True) == 0


def test_failed_run_leaves_no_cycle():
    """A run whose application raises: the failure's traceback, and the
    process error it was raised from, must not keep the run's frames —
    whose locals hold the system — alive.  What the caller is shown of
    the failure stays whole."""
    def app(env, _params):
        env.barrier()
        if env.pid == 1:
            raise ValueError("boom")

    spec = get_app("fft")
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ProcessFailure) as caught:
            CVM(spec.config(nprocs=2)).run(app, None)
        failure = caught.value
        assert str(failure) == "process P1 failed: ValueError('boom')"
        assert isinstance(failure.__cause__, ValueError)
        printed = "".join(traceback.format_exception(failure))
        assert 'raise ValueError("boom")' in printed
        assert "in _proc_main" in printed
        del caught, failure
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_check_sees_a_cycle():
    """The measurement itself: an application that leaves one cycle
    behind is counted."""
    def app(env, _params):
        node = {}
        node["self"] = node

    spec = get_app("fft")
    gc.collect()
    gc.disable()
    try:
        CVM(spec.config(nprocs=2)).run(app, None)
        assert gc.collect() > 0
    finally:
        gc.enable()
