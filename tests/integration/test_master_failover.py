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

import json

import pytest

from tests.core.reference_step5 import detector_class

from repro import durable
from repro.apps.registry import APPLICATIONS, get_app
from repro.core.detector import RaceDetector
from repro.dsm.coordinator import CoordinatorRole
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
    assert res.barriers_completed > 3
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
    assert a.failover_stats.summary() == b.failover_stats.summary()
    assert a.crash_stats.summary() == b.crash_stats.summary()


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
    assert res.failover_stats.state_checkpoints == res.barriers_completed + 1


def test_failover_off_run_has_zero_failover_state():
    res = get_app("sor").run(nprocs=4)
    assert not res.config.master_failover
    assert res.aggregate_ledger().totals[CostCategory.FAILOVER] == 0.0
    assert all(v == 0 for v in res.failover_stats.summary().values())


def test_failover_on_without_crash_changes_no_reports():
    base = _free_run("water")
    res = get_app("water").run(nprocs=4, master_failover=True)
    assert _report_lines(res) == _report_lines(base)
    assert res.failover_stats.elections_held == 0
    assert res.failover_stats.state_checkpoints > 0  # journal maintained


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
# The journal is assembled from member texts the detector keeps: at every
# write it must equal the canonical encoding of the state it stands for.
# ---------------------------------------------------------------------- #
def journal_divergences(monkeypatch, app, nprocs, **overrides):
    """Journal writes whose body differs from ``canon(serialize_state())``
    (and the number of writes checked)."""
    bad, writes = [], []
    journal_state = CoordinatorRole.journal_state

    def checked(self, clock, cost_model):
        nbytes = journal_state(self, clock, cost_model)
        writes.append(nbytes)
        body = durable.unframe(self.journal_json)
        if body != durable.canon(self.serialize_state()):
            bad.append(len(writes))
        return nbytes

    monkeypatch.setattr(CoordinatorRole, "journal_state", checked)
    res = get_app(app).run(nprocs=nprocs, master_failover=True, **overrides)
    assert res.failover_stats.elections_held >= 1
    return bad, len(writes)


JOURNAL_CELLS = {
    "hashtab-no-checkpoint": ("hashtab", 8, dict(crash_at=((0, 2),))),
    "water-checkpoint": ("water", 4, dict(crash_at=((0, 1),),
                                          checkpoint=True)),
    "sor-cascade": ("sor", 4, dict(crash_at=((0, 1), (1, 2)),
                                   checkpoint=True)),
    "hashtab-first-races": ("hashtab", 8, dict(crash_at=((0, 2),),
                                               first_races_only=True)),
}


@pytest.mark.parametrize("cell", sorted(JOURNAL_CELLS))
def test_journal_texts_equal_the_canonical_state(cell, monkeypatch):
    app, nprocs, overrides = JOURNAL_CELLS[cell]
    bad, writes = journal_divergences(monkeypatch, app, nprocs, **overrides)
    assert writes > 2
    assert bad == []


class RestoreRebuildsLooseTexts(RaceDetector):
    """A successor that rebuilds its race texts with ``json.dumps``'s
    separators instead of the canonical ones."""

    def restore_state(self, data):
        super().restore_state(data)
        self._texts["races"] = [json.dumps(d) for d in data["races"]]


def test_a_journal_with_wrong_member_texts_is_caught(monkeypatch):
    with detector_class(RestoreRebuildsLooseTexts):
        bad, _writes = journal_divergences(monkeypatch, "hashtab", 8,
                                           crash_at=((0, 2),))
    assert bad
