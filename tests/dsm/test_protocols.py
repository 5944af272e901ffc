"""Single-writer vs multi-writer protocol behaviour."""

import pytest

from tests.helpers import run_app, run_app_with_system

from repro.dsm.config import DsmConfig


def _false_sharing_app(env):
    """Every process writes its own word of one page, unsynchronized."""
    x = env.malloc(16, name="x")
    env.barrier()
    env.store(x + env.pid, 100 + env.pid)
    env.barrier()
    return env.load_range(x, env.nprocs)


@pytest.mark.parametrize("protocol", ["sw", "mw"])
def test_false_sharing_final_values(protocol):
    """With barrier-separated readback, both protocols must converge —
    the multi-writer protocol merges concurrent same-page writes via
    diffs; the single-writer protocol serializes through ownership."""
    res = run_app(_false_sharing_app, nprocs=4, protocol=protocol)
    # Both protocols merge disjoint-word writes: the multi-writer protocol
    # through diffs, the single-writer protocol because every ownership
    # transfer ships the current page contents (ping-pong, not clobber).
    assert res.results[0][:4] == [100, 101, 102, 103]
    assert all(r == res.results[0] for r in res.results)
    # Different words -> no data race, in either protocol.
    assert res.races == []


@pytest.mark.parametrize("protocol", ["sw", "mw"])
def test_synchronized_updates_identical(protocol):
    def app(env):
        x = env.malloc(1, name="c")
        env.barrier()
        for _ in range(3):
            with env.locked(1):
                env.store(x, env.load(x) + 1)
        env.barrier()
        return env.load(x)

    res = run_app(app, nprocs=4, protocol=protocol)
    assert res.results == [12] * 4
    assert res.races == []


def test_mw_home_copy_kept_valid():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        if env.pid == 1:
            with env.locked(1):
                env.store(x, 5)
        env.barrier()
        return env.load(x)

    system, res = run_app_with_system(app, nprocs=2, protocol="mw")
    assert res.results == [5, 5]


def test_mw_diff_write_detection_finds_race():
    """§6.5: with diff-derived write detection, stores are not
    instrumented at all, yet write-write races are still found."""
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        env.store(x, env.pid + 1)  # all procs write x: racy
        env.barrier()

    res = run_app(app, nprocs=3, protocol="mw", diff_write_detection=True)
    assert any(r.kind.value == "write-write" for r in res.races)
    # Stores were not instrumented: no shared analysis calls for them.
    assert res.metrics["dsm.env.words"] == 0


def test_mw_diff_write_detection_misses_same_value_overwrite():
    """§6.5's weaker guarantee, demonstrated end to end: overwriting a
    word with the value it already holds produces an empty diff, so the
    write-write race goes undetected in diff mode..."""
    def app(env):
        x = env.malloc(1, name="x")
        if env.pid == 0:
            env.store(x, 7)  # x already holds 7...
        env.barrier()
        env.load(x)          # everyone caches the page holding 7
        env.barrier()
        env.store(x, 7)      # ...and every process overwrites it with 7
        env.barrier()

    diff_mode = run_app(app, nprocs=3, protocol="mw",
                        diff_write_detection=True)
    assert diff_mode.races == []  # missed!
    # ... while instrumented store tracking catches it.
    instrumented = run_app(app, nprocs=3, protocol="mw",
                           diff_write_detection=False)
    assert any(r.kind.value == "write-write" for r in instrumented.races)


def test_diff_write_detection_requires_mw():
    with pytest.raises(ValueError):
        DsmConfig(protocol="sw", diff_write_detection=True)


def test_mw_concurrent_writers_both_preserved():
    """Two processes write disjoint halves of one page between barriers;
    the home merges both diffs."""
    def app(env):
        x = env.malloc(16, name="x")
        env.barrier()
        if env.pid == 0:
            env.store_range(x, [1] * 8)
        else:
            env.store_range(x + 8, [2] * 8)
        env.barrier()
        return env.load_range(x, 16)

    res = run_app(app, nprocs=2, protocol="mw")
    assert res.results[0] == [1] * 8 + [2] * 8
    assert res.results[1] == [1] * 8 + [2] * 8
    assert res.races == []
