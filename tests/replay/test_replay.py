"""Record/replay of synchronization order and divergence detection."""

import pytest

from repro.apps.registry import APPLICATIONS
from repro.dsm.cvm import CVM
from repro.errors import ReplayError
from repro.replay import SyncTrace, SyncTraceEnforcer, SyncTraceRecorder


def _contended_app(env):
    x = env.malloc(1, name="x")
    env.barrier()
    for _ in range(4):
        with env.locked(1):
            env.store(x, env.load(x) + 1)
    env.barrier()
    return env.load(x)


def record_run(seed, nprocs=4):
    spec = APPLICATIONS["tsp"]
    cfg = spec.config(nprocs=nprocs, policy="random", seed=seed)
    system = CVM(cfg)
    recorder = SyncTraceRecorder()
    system.lock_order = recorder
    result = system.run(_contended_app)
    return recorder, result


def test_recorder_logs_every_grant():
    recorder, result = record_run(seed=1)
    assert (recorder.trace.total_grants
            == result.metrics["dsm.sync.lock_acquires"])
    assert recorder.trace.log_bytes > 0
    # All grants are for lock 1 and each pid appears 4 times.
    grants = recorder.trace.lock_grants[1]
    assert sorted(grants) == sorted([p for p in range(4) for _ in range(4)])


def test_replay_reproduces_grant_order_under_different_seed():
    recorder, _res = record_run(seed=1)
    spec = APPLICATIONS["tsp"]
    cfg2 = spec.config(nprocs=4, policy="random", seed=999)  # different!
    system2 = CVM(cfg2)
    replayer = SyncTraceRecorder()  # second recorder to observe the replay
    enforcer = SyncTraceEnforcer(recorder.trace)

    class Both:
        """Enforce the first run's order while recording the second's."""

        def may_acquire(self, lid, pid):
            return enforcer.may_acquire(lid, pid)

        def expected_next(self, lid):
            return enforcer.expected_next(lid)

        def record_grant(self, lid, pid):
            enforcer.record_grant(lid, pid)
            replayer.record_grant(lid, pid)

    system2.lock_order = Both()
    system2.run(_contended_app)
    assert replayer.trace.lock_grants == recorder.trace.lock_grants
    assert enforcer.fully_consumed()


def test_enforcer_raises_on_divergence():
    enforcer = SyncTraceEnforcer(SyncTrace(lock_grants={7: [0, 1]}))
    assert enforcer.may_acquire(7, 0)
    assert not enforcer.may_acquire(7, 1)
    enforcer.record_grant(7, 0)
    with pytest.raises(ReplayError):
        enforcer.record_grant(7, 0)  # recorded next is P1


def test_enforcer_unconstrained_locks_pass_through():
    enforcer = SyncTraceEnforcer(SyncTrace())
    assert enforcer.may_acquire(3, 2)
    assert enforcer.expected_next(3) is None
    enforcer.record_grant(3, 2)  # no constraint, no error
    assert enforcer.fully_consumed()


def test_log_bytes_accounting():
    trace = SyncTrace(lock_grants={5: [0, 1, 0, 2], 6: [1]})
    assert trace.total_grants == 5
    assert trace.log_bytes == 4 * 5 + 8 * 2
