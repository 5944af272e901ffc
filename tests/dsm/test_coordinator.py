"""Unit tests for the elected coordinator role (master failover).

Covers the deterministic election function, the role's journal/restore
round trip (the real serialize → canonical JSON → parse → restore path),
the barrier-master reassignment guards, and the config-layer validation
of the failover knobs.
"""

import json

import pytest

from repro import durable
from repro.dsm.config import DsmConfig
from repro.dsm.coordinator import (CoordinatorRole, FailoverStats,
                                   elect_coordinator)
from repro.dsm.sync import BarrierState
from repro.errors import SynchronizationError
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import (OVERHEAD_CATEGORIES, CostCategory,
                                 CostModel)


# ---------------------------------------------------------------------- #
# Election: deterministic, rank-based, never the dead coordinator.
# ---------------------------------------------------------------------- #
def test_election_picks_lowest_live_pid():
    assert elect_coordinator(0, [1, 2, 3], 4) == 1
    assert elect_coordinator(0, [3, 2], 4) == 2
    assert elect_coordinator(2, [0, 1, 3], 4) == 0


def test_election_never_returns_the_dead_coordinator():
    # Even if the (recovering) old coordinator shows up as live again,
    # the role moves: re-electing the crashed pid would defeat failover.
    assert elect_coordinator(0, [0, 2, 3], 4) == 2


def test_election_with_everyone_crashed_falls_back_to_rank():
    # All processes crashed this epoch: the lowest pid other than the
    # dead coordinator wins and recovers at its own arrival.
    assert elect_coordinator(0, [], 4) == 1
    assert elect_coordinator(1, [], 4) == 0


def test_election_requires_a_possible_successor():
    with pytest.raises(ValueError, match="no process"):
        elect_coordinator(0, [], 1)


def test_election_is_deterministic():
    for _ in range(3):
        assert elect_coordinator(0, [3, 1, 2], 4) == 1


# ---------------------------------------------------------------------- #
# Role state: journal and install round trip.
# ---------------------------------------------------------------------- #
def _role(failover=True, detector=None, factory=None):
    return CoordinatorRole(4, failover=failover, detector=detector,
                           detector_factory=factory or (lambda pid: None),
                           initial_pid=0)


def test_role_state_json_is_canonical():
    role = _role()
    text = role.state_json()
    # Canonical form: sorted keys, no whitespace — byte sizes must be
    # deterministic because they are priced.
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"))


def test_journal_state_charges_failover_not_overhead():
    role = _role()
    clock = VirtualClock()
    cm = CostModel()
    nbytes = role.journal_state(clock, cm)
    assert nbytes == len(role.journal_json.encode("utf-8"))
    assert clock.now == pytest.approx(cm.checkpoint_write_per_byte * nbytes)
    ledger = clock.ledger
    assert ledger.totals[CostCategory.FAILOVER] > 0
    assert all(ledger.totals[cat] == 0 for cat in OVERHEAD_CATEGORIES)
    assert role.stats.state_checkpoints == 1
    assert role.stats.state_checkpoint_bytes == nbytes


def test_install_from_journal_moves_the_role():
    built = []

    def factory(pid):
        built.append(pid)
        return None

    role = _role(factory=factory)
    role.journal_state(VirtualClock(), CostModel())
    nbytes = role.install_from_journal(2)
    assert role.pid == 2
    assert built == [2]  # a fresh detector is built for the winner
    assert role.stats.elections_held == 1
    assert role.stats.state_bytes_migrated == nbytes


def test_snapshot_section_carries_state_only_for_the_holder():
    role = _role()
    holder = role.snapshot_section(0)
    other = role.snapshot_section(3)
    assert holder["pid"] == other["pid"] == 0
    assert holder["state"] is not None
    assert other["state"] is None


def test_failover_stats_summary_keys():
    s = FailoverStats().summary()
    assert set(s) == {"elections_held", "state_bytes_migrated",
                      "records_resolicited", "state_checkpoints",
                      "state_checkpoint_bytes", "journal_fallbacks"}
    assert all(v == 0 for v in s.values())


# ---------------------------------------------------------------------- #
# Journal durability: torn or corrupt journal tails are detected on
# restore and the role falls back instead of installing garbage.
# ---------------------------------------------------------------------- #
class _FakeDetector:
    """Observable stand-in: records what state was restored into it."""

    def __init__(self):
        self.restored = None

    def serialize_state(self):
        return {"marker": "live"}

    def state_json(self):
        return durable.canon(self.serialize_state())

    def restore_state(self, state):
        self.restored = state


def _observable_role():
    return CoordinatorRole(4, failover=True, detector=_FakeDetector(),
                           detector_factory=lambda pid: _FakeDetector(),
                           initial_pid=0)


def test_journal_is_framed_and_round_trips():
    role = _observable_role()
    role.journal_state(VirtualClock(), CostModel())
    framed = role.journal_json
    body, _, digest = framed.rpartition("\n")
    assert body == role.state_json()
    state = CoordinatorRole.parse_journal(framed)
    assert state == {"pid": 0, "detector": {"marker": "live"}}


@pytest.mark.parametrize("cut", [1, 10, -1, -20])
def test_parse_journal_rejects_truncation(cut):
    role = _observable_role()
    role.journal_state(VirtualClock(), CostModel())
    framed = role.journal_json
    with pytest.raises(ValueError, match="torn or corrupt"):
        CoordinatorRole.parse_journal(framed[:cut])


def test_parse_journal_rejects_flipped_byte():
    role = _observable_role()
    role.journal_state(VirtualClock(), CostModel())
    framed = role.journal_json
    corrupt = framed.replace('"marker"', '"mXrker"', 1)
    assert corrupt != framed
    with pytest.raises(ValueError, match="torn or corrupt"):
        CoordinatorRole.parse_journal(corrupt)


def test_parse_journal_rejects_wrong_shape():
    framed = durable.frame('["not", "a", "role"]')
    with pytest.raises(ValueError, match="malformed"):
        CoordinatorRole.parse_journal(framed)


def test_install_from_intact_journal_restores_journaled_state():
    role = _observable_role()
    role.journal_state(VirtualClock(), CostModel())
    role.install_from_journal(2)
    assert role.detector.restored == {"marker": "live"}
    assert role.stats.journal_fallbacks == 0


def test_install_from_torn_journal_uses_checkpoint_fallback():
    role = _observable_role()
    role.journal_state(VirtualClock(), CostModel())
    role._journal = role._journal[:len(role._journal) // 2]
    role.install_from_journal(
        2, fallback_state={"pid": 0, "detector": {"marker": "checkpoint"}})
    assert role.pid == 2
    assert role.detector.restored == {"marker": "checkpoint"}
    assert role.stats.journal_fallbacks == 1
    assert role.stats.elections_held == 1


def test_install_from_torn_journal_without_checkpoint_uses_memory():
    role = _observable_role()
    role.journal_state(VirtualClock(), CostModel())
    role._journal = "garbage with no frame"
    role.install_from_journal(1)
    assert role.detector.restored == {"marker": "live"}
    assert role.stats.journal_fallbacks == 1


# ---------------------------------------------------------------------- #
# Barrier-master reassignment guards.
# ---------------------------------------------------------------------- #
def test_reassign_master_requires_failover():
    bar = BarrierState(4)
    with pytest.raises(SynchronizationError, match="pinned"):
        bar.reassign_master(1)
    assert bar.master == 0


def test_reassign_master_moves_the_master():
    bar = BarrierState(4, failover=True)
    bar.reassign_master(2)
    assert bar.master == 2
    # The old master is just another process now and can be declared dead.
    bar.declare_dead(0)
    # Under failover even the current master may be declared dead: in an
    # epoch where *every* process crashed, the elected successor is itself
    # recovering and is declared dead like the rest.
    bar.declare_dead(2)
    assert bar.dead_this_generation == {0, 2}


def test_reassign_master_rejects_out_of_range_pid():
    bar = BarrierState(4, failover=True)
    with pytest.raises(SynchronizationError, match="elect"):
        bar.reassign_master(4)


def test_declare_dead_master_allowed_under_failover():
    bar = BarrierState(4, failover=True)
    bar.reassign_master(1)
    bar.declare_dead(0)  # the old master is just another process now


def test_horizons_recorded_only_under_failover():
    bar = BarrierState(2, failover=False)
    assert bar.horizons == {}
    bar = BarrierState(2, failover=True)
    assert bar.failover
    bar.horizons[0] = object()
    bar.reset_for_next_generation()
    assert bar.horizons == {}


# ---------------------------------------------------------------------- #
# Config-layer validation.
# ---------------------------------------------------------------------- #
def test_config_rejects_crash_at_master_without_failover():
    with pytest.raises(ValueError, match="master"):
        DsmConfig(nprocs=4, crash_at=((0, 1),))


def test_config_error_points_at_the_failover_flag():
    with pytest.raises(ValueError, match="--master-failover"):
        DsmConfig(nprocs=4, crash_at=((0, 1),))


def test_config_accepts_crash_at_master_with_failover():
    cfg = DsmConfig(nprocs=4, crash_at=((0, 1),), master_failover=True)
    assert cfg.master_failover


def test_config_rejects_master_crash_with_single_process():
    with pytest.raises(ValueError, match="nprocs=1"):
        DsmConfig(nprocs=1, crash_at=((0, 1),), master_failover=True)


def test_config_rejects_nonpositive_election_timeout():
    with pytest.raises(ValueError, match="election_timeout"):
        DsmConfig(nprocs=4, master_failover=True, election_timeout=0.0)
