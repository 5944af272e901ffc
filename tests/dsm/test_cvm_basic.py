"""Basic DSM behaviour: allocation, loads/stores, faults, results."""

import pytest

from tests.helpers import run_app, run_app_with_system, small_config

from repro.dsm.cvm import CVM
from repro.errors import (AllocationError, ProcessFailure, SegmentationFault,
                          SynchronizationError)


def test_store_then_load_locally():
    def app(env):
        x = env.malloc(4, name="x")
        env.store(x, 123)
        return env.load(x)

    res = run_app(app, nprocs=1)
    assert res.results == [123]


def test_named_malloc_idempotent_across_processes():
    def app(env):
        return env.malloc(8, name="shared_block")

    res = run_app(app, nprocs=4)
    assert len(set(res.results)) == 1


def test_named_malloc_of_a_different_size_is_refused():
    """Handed the existing 8-word block, a process that asked for 16
    would store past its end into the next allocation, unchecked: scalar
    accesses are bounds-checked against the segment only."""
    def app(env):
        if env.pid == 0:
            env.malloc(8, name="x")
            env.malloc(8, name="y")
        env.barrier()
        if env.pid == 1:
            x = env.malloc(16, name="x")
            env.store(x + 12, 99)
        env.barrier()
        return env.load(env.malloc(8, name="y") + 4)

    with pytest.raises(ProcessFailure) as exc_info:
        run_app(app, nprocs=2)
    cause = exc_info.value.__cause__
    assert isinstance(cause, AllocationError)
    assert str(cause) == ("P1: malloc(16, name='x') does not match the "
                          "existing 8-word block 'x'")


def test_values_propagate_through_barrier():
    def app(env):
        x = env.malloc(1, name="x")
        if env.pid == 0:
            env.store(x, 77)
        env.barrier()
        return env.load(x)

    res = run_app(app, nprocs=4)
    assert res.results == [77] * 4


def test_fresh_pages_read_zero():
    def app(env):
        x = env.malloc(4, name="x")
        return env.load(x + 2)

    res = run_app(app, nprocs=2)
    assert res.results == [0, 0]


def test_range_ops_roundtrip_across_pages():
    def app(env):
        # Spans several 16-word pages.
        x = env.malloc(50, name="x")
        if env.pid == 0:
            env.store_range(x, list(range(50)))
        env.barrier()
        return env.load_range(x, 50)

    res = run_app(app, nprocs=2)
    assert res.results[0] == list(range(50))
    assert res.results[1] == list(range(50))


def test_floats_supported():
    def app(env):
        x = env.malloc(2, name="x")
        if env.pid == 0:
            env.store(x, 3.25)
        env.barrier()
        return env.load(x)

    res = run_app(app, nprocs=2)
    assert res.results == [3.25, 3.25]


def test_out_of_segment_access_faults():
    def app(env):
        env.load(10 ** 9)

    with pytest.raises(Exception) as exc:
        run_app(app, nprocs=1)
    assert isinstance(exc.value.original, SegmentationFault) or \
        isinstance(exc.value, SegmentationFault)


def test_range_off_end_of_allocation_faults():
    def app(env):
        x = env.malloc(4, name="x")
        env.load_range(x, 5)

    with pytest.raises(Exception) as exc:
        run_app(app, nprocs=1)
    assert "SegmentationFault" in repr(exc.value) or "segmentation" in str(exc.value)


def test_cvm_runs_once_only():
    cfg = small_config(nprocs=1)
    system = CVM(cfg)
    system.run(lambda env: None)
    with pytest.raises(SynchronizationError):
        system.run(lambda env: None)


def test_runresult_basic_fields():
    def app(env):
        x = env.malloc(16, name="x")
        env.store(x + env.pid, env.pid)
        env.barrier()
        env.compute(10)
        env.private_accesses(5)
        return env.pid

    res = run_app(app, nprocs=4)
    assert res.results == [0, 1, 2, 3]
    assert res.runtime_cycles > 0
    assert res.runtime_seconds > 0
    assert res.metrics["dsm.sync.barriers"] == 2  # explicit + final implicit
    assert res.metrics["dsm.interval.created"] > 0
    assert (res.metrics["dsm.segment.high_water_kbytes"]
            == pytest.approx(16 * 8 / 1024))
    assert res.metrics["dsm.env.words"] >= 4
    assert res.metrics["dsm.env.private_words"] == 4 * 5


def test_detection_off_counts_nothing():
    def app(env):
        x = env.malloc(4, name="x")
        env.store(x, 1)
        env.private_accesses(10)

    res = run_app(app, nprocs=1, detection=False)
    assert res.metrics["dsm.env.words"] == 0
    assert res.metrics["dsm.env.private_words"] == 0
    assert res.races == []
    assert res.detector_stats is None


def test_deterministic_runs_same_seed():
    def app(env):
        x = env.malloc(8, name="x")
        with env.locked(1):
            env.store(x, env.load(x) + env.pid)
        env.barrier()
        return env.load(x)

    a = run_app(app, nprocs=4, policy="random", seed=11)
    b = run_app(app, nprocs=4, policy="random", seed=11)
    assert a.results == b.results
    assert a.runtime_cycles == b.runtime_cycles
    assert a.traffic.total_bytes == b.traffic.total_bytes


def test_symbol_for():
    def app(env):
        x = env.malloc(4, name="my_array")
        return env.symbol_for(x + 2)

    res = run_app(app, nprocs=1)
    assert res.results == ["my_array+2"]
