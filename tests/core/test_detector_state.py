"""Detector-state replay: the substrate of coordinator failover.

``RaceDetector._commit`` appends one record text per commit to the
detector's log, and ``RaceDetector.replay`` folds such a log into a fresh
detector.  The replay must rebuild the *entire* mutable detection state —
reports, unverifiable entries, the cross-epoch deduplication keys,
aggregate statistics and the per-epoch history — because that is exactly
what migrates to a newly elected coordinator when the master dies.  A
lossy record would silently corrupt every post-failover report.
"""

import json

import pytest

from repro.apps.registry import get_app
from repro.dsm.coordinator import make_detector
from repro.dsm.cvm import CVM
from repro.durable import canon
from tests.helpers import detector_state


def _run_system(app_name, nprocs=4, **overrides):
    """Run an app and hand back the live CVM (its detector retains the
    full end-of-run detection state)."""
    spec = get_app(app_name)
    cfg = spec.config(nprocs=nprocs, **overrides)
    system = CVM(cfg)
    system.run(spec.func, spec.default_params)
    return system


@pytest.fixture(scope="module")
def racy_system():
    return _run_system("queue_racy", nprocs=3, master_failover=True)


def _replayed(system, master_pid):
    clone = make_detector(system, master_pid)
    clone.replay(list(system.detector.log))
    return clone


# ---------------------------------------------------------------------- #
# Replay of the commit log, on a *different* pid.
# ---------------------------------------------------------------------- #
def test_round_trip_is_a_fixpoint(racy_system):
    det = racy_system.detector
    clone = _replayed(racy_system, master_pid=2)
    assert clone.log == det.log
    assert detector_state(clone) == detector_state(det)
    assert clone.master_pid == 2  # identity stays the successor's


def test_round_trip_preserves_reports_exactly(racy_system):
    det = racy_system.detector
    assert det.races  # queue_racy must actually race
    clone = _replayed(racy_system, master_pid=1)
    assert [str(r) for r in clone.races] == [str(r) for r in det.races]
    assert ([str(r) for r in clone.unverifiable]
            == [str(r) for r in det.unverifiable])
    assert clone.stats.races_found == det.stats.races_found


def test_round_trip_preserves_dedup_state(racy_system):
    """`RaceReport.key()` excludes the epoch, so `_seen_keys` must migrate
    with the role: dropping it would re-report every old race the first
    time the new coordinator sees the pair again."""
    det = racy_system.detector
    assert det._seen_keys
    clone = _replayed(racy_system, master_pid=2)
    assert set(clone.seen_keys()) == set(det.seen_keys())
    assert clone._unverifiable_pair_keys == det._unverifiable_pair_keys
    assert clone._first_race_epoch == det._first_race_epoch


def test_replayed_reports_share_symbols_and_sides():
    """A replayed detector keeps what the live one keeps per report: the
    tuple, with one symbol string per symbol and one ref per side."""
    clone = _replayed(_run_system("hashtab", nprocs=8, master_failover=True),
                      master_pid=1)
    reports = clone.races + clone.unverifiable
    assert len(reports) > len({r.symbol for r in reports})
    assert (len({id(r.symbol) for r in reports})
            == len({r.symbol for r in reports}))
    refs = [ref for r in reports for ref in (r.a, r.b)]
    assert len({id(ref) for ref in refs}) == len(set(refs))


def test_round_trip_preserves_stats_and_history(racy_system):
    det = racy_system.detector
    assert det.stats.epoch_history  # the run had epochs
    assert _replayed(racy_system, master_pid=1).stats == det.stats


def test_serialized_state_is_json_clean(racy_system):
    # One canonical JSON text per commit: no Python-only types leak into
    # the journal, and its byte sizes are deterministic.
    log = racy_system.detector.log
    assert len(log) == racy_system.detector.stats.epochs_checked
    for text in log:
        assert canon(json.loads(text)) == text


def test_report_key_codec_round_trips():
    """The keys of races ``first_races_only`` suppressed are in no report
    list, so only their records carry them across."""
    system = _run_system("hashtab", nprocs=8, master_failover=True,
                         first_races_only=True)
    det = system.detector
    assert det.stats.races_suppressed_not_first > 0
    clone = _replayed(system, master_pid=1)
    assert set(clone.seen_keys()) == set(det.seen_keys())
    assert (len(set(det.seen_keys()))
            > len(det.races) + len(det.unverifiable))


# ---------------------------------------------------------------------- #
# Mid-run migration: replay after epoch k on another pid, finish the
# remaining epochs — reports must match the uninterrupted detector byte
# for byte, across a seed sweep.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mid_run_migration_reproduces_reports(seed):
    uninterrupted = _run_system("water", seed=seed)
    migrated = _run_system("water", seed=seed, master_failover=True,
                           crash_at=((0, 1),))
    assert (sorted(str(r) for r in migrated.detector.races)
            == sorted(str(r) for r in uninterrupted.detector.races))
    # The migrated detector genuinely is a different object on a
    # different pid, rebuilt from the journal.
    assert migrated.coordinator.pid == 1
    assert migrated.detector.master_pid == 1
    assert migrated.coordinator.stats.elections_held == 1
