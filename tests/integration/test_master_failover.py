"""Master failover integration: the coordinator (P0, running the race
detector) crashes and a surviving process takes over.

The headline guarantees (ISSUE 5 acceptance criteria):

* with ``--master-failover``, killing P0 at any barrier generation >= 1
  on every registered application completes the run and reproduces the
  crash-free race reports byte-identically — modulo pairs the degraded
  detector soundly marks ``unverifiable`` when the master's own epoch
  metadata died with it (checkpointing eliminates even those);
* the election is deterministic: the same crash schedule elects the same
  coordinator and produces the same reports, every run;
* all failover work is charged under ``CostCategory.FAILOVER``, outside
  the overhead breakdown, so failover-off artifacts stay byte-identical;
* with failover off, targeting P0 stays rejected with an error pointing
  at the flag.
"""

import pytest

from tests.core.reference_step5 import detector_class
from tests.helpers import detector_state

from repro import durable
from repro.apps.registry import APPLICATIONS, get_app
from repro.core.detector import RaceDetector
from repro.dsm.coordinator import CoordinatorRole, FailoverStats
from repro.sim.costmodel import OVERHEAD_CATEGORIES, CostCategory

APP_NAMES = sorted(APPLICATIONS)


def _report_lines(result):
    return sorted(str(r) for r in result.races)


def _free_run(name):
    return get_app(name).run(nprocs=4)


@pytest.fixture(scope="module")
def free_runs():
    return {name: _free_run(name) for name in APP_NAMES}


# ---------------------------------------------------------------------- #
# The acceptance sweep: every registered app, master killed at gen >= 1.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", APP_NAMES)
def test_master_crash_with_checkpoints_is_byte_identical(name, free_runs):
    for gen in (1, 2):
        res = get_app(name).run(nprocs=4, master_failover=True,
                                crash_at=((0, gen),), checkpoint=True)
        assert _report_lines(res) == _report_lines(free_runs[name]), (
            f"{name}: report diverged after master crash at gen {gen}")
        assert res.unverifiable == []
        assert res.failover_stats.elections_held == 1
        assert res.crash_stats.master_crashes_suppressed == 0


@pytest.mark.parametrize("name", APP_NAMES)
def test_master_crash_without_checkpoints_degrades_soundly(name, free_runs):
    """No checkpoint: the master's own current-epoch bitmaps died with it.
    Surviving reports are a subset of the crash-free run; anything missing
    resurfaces as an explicit unverifiable pair, never silently."""
    res = get_app(name).run(nprocs=4, master_failover=True,
                            crash_at=((0, 1),))
    free = free_runs[name]
    assert set(_report_lines(res)) <= set(_report_lines(free))
    missing = set(_report_lines(free)) - set(_report_lines(res))
    if missing:
        assert res.unverifiable
        sides = {(e.a.pid, e.a.index) for e in res.unverifiable} \
            | {(e.b.pid, e.b.index) for e in res.unverifiable}
        for race in free.races:
            if str(race) in _report_lines(res):
                continue
            assert {(race.a.pid, race.a.index),
                    (race.b.pid, race.b.index)} & sides, (
                f"{name}: race silently dropped on master crash: {race}")
    st = res.detector_stats
    assert st.unverifiable_reports == len(res.unverifiable)


def test_master_crash_at_later_generation_completes():
    res = get_app("sor").run(nprocs=4, master_failover=True,
                             crash_at=((0, 3),), checkpoint=True)
    assert res.metrics["dsm.sync.barriers"] > 3
    assert res.failover_stats.elections_held == 1


# ---------------------------------------------------------------------- #
# Election determinism and role stickiness.
# ---------------------------------------------------------------------- #
def test_failover_is_deterministic():
    runs = [get_app("water").run(nprocs=4, master_failover=True,
                                 crash_at=((0, 1),), checkpoint=True)
            for _ in range(2)]
    a, b = runs
    assert _report_lines(a) == _report_lines(b)
    assert a.runtime_cycles == b.runtime_cycles
    assert a.failover_stats == b.failover_stats
    assert a.crash_stats == b.crash_stats


def test_successive_coordinator_deaths_cascade_down_the_ranks():
    # P0 dies at gen 1 (P1 elected), then P1 dies at gen 2 (P2 elected).
    res = get_app("sor").run(nprocs=4, master_failover=True,
                             crash_at=((0, 1), (1, 2)), checkpoint=True)
    assert res.failover_stats.elections_held == 2
    assert _report_lines(res) == _report_lines(_free_run("sor"))


def test_non_master_crashes_do_not_trigger_elections():
    res = get_app("sor").run(nprocs=4, master_failover=True,
                             crash_at=((2, 1),), checkpoint=True)
    assert res.crash_stats.crashes == 1
    assert res.failover_stats.elections_held == 0
    assert res.failover_stats.state_bytes_migrated == 0


# ---------------------------------------------------------------------- #
# Accounting: failover work never leaks into the overhead breakdown.
# ---------------------------------------------------------------------- #
def test_failover_charges_stay_out_of_overhead():
    res = get_app("sor").run(nprocs=4, master_failover=True,
                             crash_at=((0, 1),), checkpoint=True)
    ledger = res.aggregate_ledger()
    assert ledger.totals[CostCategory.FAILOVER] > 0
    # The Figure 3 taxonomy never grows a failover bar: all of it is
    # priced outside the overhead breakdown, like RECOVERY/RETRANSMIT.
    assert CostCategory.FAILOVER not in OVERHEAD_CATEGORIES
    assert CostCategory.FAILOVER.value not in res.overhead_breakdown()
    # One journal write at startup plus one after every detection pass.
    assert (res.failover_stats.state_checkpoints
            == res.metrics["dsm.sync.barriers"] + 1)


def test_failover_off_run_has_zero_failover_state():
    res = get_app("sor").run(nprocs=4)
    assert not res.config.master_failover
    assert res.aggregate_ledger().totals[CostCategory.FAILOVER] == 0.0
    assert res.failover_stats == FailoverStats()


def test_failover_on_without_crash_changes_no_reports():
    base = _free_run("water")
    res = get_app("water").run(nprocs=4, master_failover=True)
    assert _report_lines(res) == _report_lines(base)
    assert res.failover_stats.elections_held == 0
    assert res.failover_stats.state_checkpoints > 0  # journal maintained


# ---------------------------------------------------------------------- #
# Bytes: the journal and the holder's checkpoint sections carry each
# commit record once, so they grow with the commits, not with the state.
# ---------------------------------------------------------------------- #
#: hashtab@16 with a random schedule and no crash: the detector's final
#: state in the full-state encoding the journal once rewrote at every
#: barrier (39 writes, 15,728,308 B), and the run's checkpoint bytes with
#: failover off.
FINAL_STATE_BYTES = 562_308
CHECKPOINT_BYTES_WITHOUT_FAILOVER = 953_665


def test_journal_and_checkpoint_bytes_stay_within_budget():
    res = get_app("hashtab").run(nprocs=16, policy="random",
                                 master_failover=True, checkpoint=True)
    assert res.failover_stats.state_checkpoints == 39
    assert (res.failover_stats.state_checkpoint_bytes
            <= 1.1 * FINAL_STATE_BYTES)
    assert (res.crash_stats.checkpoint_bytes
            <= CHECKPOINT_BYTES_WITHOUT_FAILOVER + 1.1 * FINAL_STATE_BYTES)


# ---------------------------------------------------------------------- #
# The guard rails with failover off.
# ---------------------------------------------------------------------- #
def test_crash_at_master_still_rejected_without_failover():
    with pytest.raises(ValueError, match="--master-failover"):
        get_app("sor").config(nprocs=4, crash_at=((0, 1),))


def test_rate_hits_on_master_still_suppressed_without_failover():
    res = get_app("tsp").run(nprocs=4, crash_rate=0.02, crash_seed=11,
                             checkpoint=True)
    assert res.crash_stats.master_crashes_suppressed > 0
    assert res.failover_stats.elections_held == 0


def test_rate_hits_on_master_crash_it_with_failover():
    # The same schedule with failover on: immunity is lifted, nothing is
    # suppressed, and the master's deaths are handled by election.
    res = get_app("tsp").run(nprocs=4, crash_rate=0.02, crash_seed=11,
                             checkpoint=True, master_failover=True)
    assert res.crash_stats.master_crashes_suppressed == 0
    assert res.failover_stats.elections_held > 0
    assert _report_lines(res) == _report_lines(_free_run("tsp"))


# ---------------------------------------------------------------------- #
# Composition with the lossy network (the CI smoke sweep's guarantee).
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_master_crash_on_lossy_network_reports_byte_identical(seed,
                                                              free_runs):
    res = get_app("tsp").run(nprocs=4, master_failover=True,
                             crash_at=((0, 1),), checkpoint=True,
                             loss_rate=0.05, fault_seed=seed)
    assert _report_lines(res) == _report_lines(free_runs["tsp"])
    assert res.unverifiable == []
    assert res.failover_stats.elections_held == 1
    assert res.traffic.retransmits > 0


# ---------------------------------------------------------------------- #
# The journal is the detector's commit log: at every append, a detector
# rebuilt by replaying it must equal the live one.
# ---------------------------------------------------------------------- #
def replay_divergences(monkeypatch, app, nprocs, **overrides):
    """Journal appends after which a detector replayed from the journal
    differs from the live one (and the number of appends checked)."""
    bad, appends = [], []
    journal_state = CoordinatorRole.journal_state

    def checked(self, clock, cost_model):
        nbytes = journal_state(self, clock, cost_model)
        appends.append(nbytes)
        records, dropped, _ = durable.parse_log(
            self._journal, lambda body, _index: body)
        rebuilt = self._factory(self.pid)
        rebuilt.replay(records)
        if dropped or detector_state(rebuilt) != detector_state(
                self.detector):
            bad.append(len(appends))
        return nbytes

    monkeypatch.setattr(CoordinatorRole, "journal_state", checked)
    res = get_app(app).run(nprocs=nprocs, master_failover=True, **overrides)
    assert res.failover_stats.elections_held >= 1
    return bad, len(appends)


JOURNAL_CELLS = {
    "hashtab-no-checkpoint": ("hashtab", 8, dict(crash_at=((0, 2),))),
    "water-checkpoint": ("water", 4, dict(crash_at=((0, 1),),
                                          checkpoint=True)),
    "sor-cascade": ("sor", 4, dict(crash_at=((0, 1), (1, 2)),
                                   checkpoint=True)),
    "hashtab-first-races": ("hashtab", 8, dict(crash_at=((0, 2),),
                                               first_races_only=True)),
    # The crashed master's lost intervals leave unverifiable pairs.
    "tsp-no-checkpoint": ("tsp", 4, dict(crash_at=((0, 1),))),
}


@pytest.mark.parametrize("cell", sorted(JOURNAL_CELLS))
def test_replay_equals_live(cell, monkeypatch):
    app, nprocs, overrides = JOURNAL_CELLS[cell]
    bad, appends = replay_divergences(monkeypatch, app, nprocs, **overrides)
    assert appends > 2
    assert bad == []


class RecordDropsSuppressedKeys(RaceDetector):
    def _record(self, races, unverifiable, suppressed, pair_keys, summary):
        return super()._record(races, unverifiable, [], pair_keys, summary)


class RecordDropsUnverifiablePairKeys(RaceDetector):
    def _record(self, races, unverifiable, suppressed, pair_keys, summary):
        return super()._record(races, unverifiable, suppressed, [], summary)


#: A broken record, and the cell whose commits carry what it drops.
BROKEN_RECORDS = {
    "drops-suppressed-keys": (RecordDropsSuppressedKeys,
                              "hashtab-first-races"),
    "drops-unverifiable-pair-keys": (RecordDropsUnverifiablePairKeys,
                                     "tsp-no-checkpoint"),
}


@pytest.mark.parametrize("mutant", sorted(BROKEN_RECORDS))
def test_a_broken_record_is_caught(mutant, monkeypatch):
    cls, cell = BROKEN_RECORDS[mutant]
    app, nprocs, overrides = JOURNAL_CELLS[cell]
    with detector_class(cls):
        bad, _appends = replay_divergences(monkeypatch, app, nprocs,
                                           **overrides)
    assert bad
