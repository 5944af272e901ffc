"""Synchronization-object state holders (pure state, no protocol)."""

import pytest

from repro.dsm.coordinator import CoordinatorRole
from repro.dsm.sync import BarrierState, EventState, GrantInfo, LockState
from repro.dsm.vector_clock import VectorClock
from repro.errors import ReproError, SynchronizationError


def test_lock_state_initial():
    st = LockState(7, manager=3)
    assert st.holder is None
    assert not st.queue
    assert st.last_releaser is None
    assert st.acquires == 0 and st.contended == 0


def test_grant_info_fields():
    g = GrantInfo(releaser=2, release_vc=VectorClock([1, 2]),
                  arrival_time=123.0)
    assert g.releaser == 2 and g.arrival_time == 123.0


def test_barrier_arrival_counting():
    bar = BarrierState(3)
    assert not bar.arrive(0, 10.0)
    assert not bar.arrive(2, 20.0)
    assert bar.arrive(1, 15.0)  # last one in
    assert bar.arrival_times == {0: 10.0, 2: 20.0, 1: 15.0}


def test_barrier_double_arrival_rejected():
    bar = BarrierState(2)
    bar.arrive(0, 1.0)
    with pytest.raises(SynchronizationError):
        bar.arrive(0, 2.0)


def test_barrier_double_arrival_catchable_as_repro_error():
    # The whole point of the SynchronizationError fix: callers catching the
    # package root exception see barrier misuse too.
    bar = BarrierState(2)
    bar.arrive(1, 1.0)
    with pytest.raises(ReproError, match="arrived twice"):
        bar.arrive(1, 2.0)


def test_barrier_death_declaration_bookkeeping():
    bar = BarrierState(3)
    role = CoordinatorRole(3, failover=False, detector=None,
                           detector_factory=lambda pid: None)
    role.declare_dead(2)
    bar.arrive(0, 1.0)
    bar.arrive(1, 2.0)
    bar.arrive(2, 9.0)
    bar.reset_for_next_generation()
    role.declare_dead(2)
    with pytest.raises(SynchronizationError, match="master"):
        role.declare_dead(0)


def test_barrier_generation_reset():
    bar = BarrierState(2)
    bar.arrive(0, 1.0)
    bar.arrive(1, 2.0)
    bar.reset_for_next_generation()
    assert bar.generation == 1
    assert bar.arrived == []
    # Reusable immediately.
    assert not bar.arrive(1, 3.0)


def test_event_state_initial():
    ev = EventState(4)
    assert not ev.is_set
    assert ev.setter is None and ev.waiters == []
