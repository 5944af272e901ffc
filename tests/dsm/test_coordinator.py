"""Unit tests for the elected coordinator role (master failover).

Covers the deterministic election function, the role's journal and its
install (the longest intact prefix of the framed commit records, a torn
tail filled in from the holder's checkpoint section or from memory),
the barrier-master guards on the role, and the config-layer validation
of the failover knobs.
"""

import pytest

from repro import durable
from repro.dsm.config import DsmConfig
from repro.dsm.coordinator import (CoordinatorRole, FailoverStats,
                                   elect_coordinator)
from repro.dsm.cvm import CVM
from repro.dsm.sync import BarrierState
from repro.errors import SynchronizationError
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import (OVERHEAD_CATEGORIES, CostCategory,
                                 CostModel)
from tests.helpers import small_config
from tests.test_durable import _record_ends


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
# The journal: the detector's commit records, framed, one append per
# detection pass; the install replays its longest intact prefix.
# ---------------------------------------------------------------------- #
#: Three commit records, one per journal append (the role moves them as
#: opaque texts).
RECORDS = ['{"n":0}', '{"n":1,"pad":"xx"}', '{"n":2,"pad":"xxxx"}']
#: What the dead coordinator holds in memory in the tests below: texts
#: unlike the journal's, so a replay shows where its prefix ended.
MEMORY = ["memory-0", "memory-1", "memory-2"]


class _FakeDetector:
    """Observable stand-in: a commit log, and what was replayed into it."""

    def __init__(self):
        self.log = []
        self.replayed = None

    def replay(self, records):
        self.replayed = list(records)
        self.log.extend(records)


def _role(failover=True, detector=None, factory=None):
    return CoordinatorRole(4, failover=failover, detector=detector,
                           detector_factory=factory or (lambda pid: None),
                           initial_pid=0)


def _journaled_role():
    """A role that appended ``RECORDS`` one per detection pass, whose
    dead coordinator then holds ``MEMORY``; returns it with the holder's
    last checkpoint section."""
    det = _FakeDetector()
    role = _role(detector=det, factory=lambda pid: _FakeDetector())
    for record in RECORDS:
        det.log.append(record)
        role.journal_state(VirtualClock(), CostModel())
    section = role.snapshot_section(0)
    det.log = list(MEMORY)
    return role, section


def test_role_state_json_is_canonical():
    # The journal holds the detector's canonical record texts verbatim,
    # each framed — byte sizes must be deterministic because they are
    # priced.
    role, _section = _journaled_role()
    assert bytes(role._journal) == "".join(
        durable.frame(r) + "\n" for r in RECORDS).encode()


def test_journal_state_charges_failover_not_overhead():
    det = _FakeDetector()
    det.log = list(RECORDS)
    role = _role(detector=det)
    clock = VirtualClock()
    cm = CostModel()
    nbytes = role.journal_state(clock, cm)
    assert nbytes == role.journal_bytes > 0
    assert clock.now == pytest.approx(cm.checkpoint_write_per_byte * nbytes)
    ledger = clock.ledger
    assert ledger.totals[CostCategory.FAILOVER] > 0
    assert all(ledger.totals[cat] == 0 for cat in OVERHEAD_CATEGORIES)
    assert role.stats.state_checkpoints == 1
    assert role.stats.state_checkpoint_bytes == nbytes
    # Priced on the bytes appended: a pass that committed nothing
    # appends nothing.
    assert role.journal_state(clock, cm) == 0
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
    role, holder = _journaled_role()
    other = role.snapshot_section(3)
    assert holder["pid"] == other["pid"] == 0
    # The count and chain digest of the log, and the last append's records.
    assert holder["count"] == 3
    assert holder["records"] == RECORDS[2:]
    assert other == {"pid": 0}


def test_failover_stats_summary_keys():
    s = FailoverStats().summary()
    assert set(s) == {"elections_held", "state_bytes_migrated",
                      "records_resolicited", "state_checkpoints",
                      "state_checkpoint_bytes", "journal_fallbacks"}
    assert all(v == 0 for v in s.values())


def test_journal_is_framed_and_round_trips():
    role, _section = _journaled_role()
    records, dropped, intact = durable.parse_log(
        role._journal, lambda body, _index: body)
    assert (records, dropped, intact) == (RECORDS, 0, role.journal_bytes)


def test_install_from_intact_journal_restores_journaled_state():
    role, _section = _journaled_role()
    role.install_from_journal(2)
    assert role.detector.replayed == RECORDS
    assert role.stats.journal_fallbacks == 0


# ---------------------------------------------------------------------- #
# Torn tails: the install takes the longest intact prefix — never a torn
# record — fills the rest in from the holder's checkpoint section, else
# from the dead coordinator's memory, and counts the fallback once.
# ---------------------------------------------------------------------- #
def test_journal_cut_at_every_offset_installs_the_intact_prefix():
    role, _section = _journaled_role()
    data = bytes(role._journal)
    ends = _record_ends(data)
    assert len(ends) == 3 and ends[-1] == len(data)
    for cut in range(len(data) + 1):
        role, _section = _journaled_role()
        role._journal = bytearray(data[:cut])
        role.install_from_journal(1)
        intact = sum(1 for end in ends if end <= cut)
        assert role.detector.replayed == RECORDS[:intact] + MEMORY[intact:]
        assert role.stats.journal_fallbacks == (intact < 3), cut
        # The torn tail is cut; the next append re-writes the fill.
        assert bytes(role._journal) == data[:ends[intact - 1]
                                             if intact else 0]


def test_parse_journal_rejects_flipped_byte():
    role, _section = _journaled_role()
    data = bytes(role._journal)
    ends = _record_ends(data)
    for i in range(len(data)):
        role, _section = _journaled_role()
        role._journal = bytearray(data[:i] + bytes([data[i] ^ 1])
                                  + data[i + 1:])
        role.install_from_journal(1)
        intact = sum(1 for end in ends if end <= i)
        assert role.detector.replayed == RECORDS[:intact] + MEMORY[intact:]
        assert role.stats.journal_fallbacks == 1, i


@pytest.mark.parametrize("cut", [1, 10, -1, -20])
def test_parse_journal_rejects_truncation(cut):
    """With the holder's section at hand: a cut into the last append is
    filled in from its records, an earlier one from memory."""
    role, section = _journaled_role()
    role._journal = role._journal[:cut]
    role.install_from_journal(1, section)
    if cut < 0:
        assert role.detector.replayed == RECORDS
    else:
        assert role.detector.replayed == MEMORY
    assert role.stats.journal_fallbacks == 1


def test_install_from_torn_journal_uses_checkpoint_fallback():
    role, section = _journaled_role()
    role._journal = role._journal[:len(role._journal) - 5]
    role.install_from_journal(2, section)
    assert role.pid == 2
    assert role.detector.replayed == RECORDS
    assert role.stats.journal_fallbacks == 1
    assert role.stats.elections_held == 1


def test_checkpoint_records_of_another_log_are_refused():
    role, section = _journaled_role()
    role._journal = role._journal[:len(role._journal) - 5]
    role.install_from_journal(2, dict(section, digest="0" * 16))
    assert role.detector.replayed == RECORDS[:2] + MEMORY[2:]


def test_install_from_torn_journal_without_checkpoint_uses_memory():
    role, _section = _journaled_role()
    role._journal = bytearray(b"garbage with no frame")
    role.install_from_journal(1)
    assert role.detector.replayed == MEMORY
    assert role.stats.journal_fallbacks == 1


# ---------------------------------------------------------------------- #
# Barrier-master guards: the role's pid is the master.
# ---------------------------------------------------------------------- #
def test_pinned_role_refuses_install():
    role = _role(failover=False)
    with pytest.raises(SynchronizationError, match="pinned"):
        role.install_from_journal(1)
    assert role.pid == 0
    assert role.stats.elections_held == 0


def test_install_moves_the_master():
    role = _role()
    role.install_from_journal(2)
    assert role.pid == 2
    # The old master is just another process now and can be declared dead.
    role.declare_dead(0)
    # Under failover even the current master may be declared dead: in an
    # epoch where *every* process crashed, the elected successor is itself
    # recovering and is declared dead like the rest.
    role.declare_dead(2)


def test_install_rejects_out_of_range_pid():
    role = _role()
    with pytest.raises(SynchronizationError, match="elect"):
        role.install_from_journal(4)
    assert role.pid == 0


def test_declare_dead_master_allowed_under_failover():
    role = _role()
    role.install_from_journal(1)
    role.declare_dead(0)  # the old master is just another process now


def test_horizons_recorded_only_under_failover(monkeypatch):
    """Arrival horizons are kept for a successor's re-solicitation, so
    only a run whose role can migrate records them; every reset clears
    them."""
    seen = []
    reset = BarrierState.reset_for_next_generation

    def spy(bar):
        seen.append(sorted(bar.horizons))
        reset(bar)
        assert bar.horizons == {}

    monkeypatch.setattr(BarrierState, "reset_for_next_generation", spy)
    for failover in (False, True):
        seen.clear()
        system = CVM(small_config(nprocs=2, master_failover=failover))
        system.run(lambda env: env.barrier())
        assert seen and all(h == ([0, 1] if failover else []) for h in seen)


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

