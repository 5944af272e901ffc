"""Detector-state serialization: the substrate of coordinator failover.

``RaceDetector.serialize_state`` / ``restore_state`` must round-trip the
*entire* mutable detection state — reports, unverifiable entries, the
cross-epoch deduplication keys, aggregate statistics and the per-epoch
history — through canonical JSON, because that is exactly what migrates
to a newly elected coordinator when the master dies.  A lossy round trip
would silently corrupt every post-failover report.
"""

import json

import pytest

from repro.apps.registry import get_app
from repro.core.detector import DetectorStats, RaceDetector
from repro.core.report import decode_report_key, encode_report_key
from repro.dsm.coordinator import make_detector
from repro.dsm.cvm import CVM


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
    return _run_system("queue_racy", nprocs=3)


def _fresh_detector(system, master_pid):
    return make_detector(system, master_pid)


# ---------------------------------------------------------------------- #
# Round trip through canonical JSON, restored on a *different* pid.
# ---------------------------------------------------------------------- #
def test_round_trip_is_a_fixpoint(racy_system):
    det = racy_system.detector
    state = det.serialize_state()
    text = json.dumps(state, sort_keys=True)
    clone = _fresh_detector(racy_system, master_pid=2)
    clone.restore_state(json.loads(text))
    assert clone.serialize_state() == state
    assert clone.master_pid == 2  # identity stays the successor's


def test_round_trip_preserves_reports_exactly(racy_system):
    det = racy_system.detector
    assert det.races  # queue_racy must actually race
    clone = _fresh_detector(racy_system, master_pid=1)
    clone.restore_state(json.loads(json.dumps(det.serialize_state())))
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
    clone = _fresh_detector(racy_system, master_pid=2)
    clone.restore_state(det.serialize_state())
    assert clone._seen_keys == det._seen_keys
    assert clone._unverifiable_pair_keys == det._unverifiable_pair_keys
    assert clone._first_race_epoch == det._first_race_epoch


def test_round_trip_preserves_stats_and_history(racy_system):
    det = racy_system.detector
    assert det.stats.epoch_history  # the run had epochs
    restored = DetectorStats.from_dict(det.stats.to_dict())
    assert restored == det.stats


def test_serialized_state_is_json_clean(racy_system):
    # No Python-only types may leak into the state: the journal is real
    # JSON on the wire.
    state = racy_system.detector.serialize_state()
    assert json.loads(json.dumps(state)) == json.loads(
        json.dumps(json.loads(json.dumps(state))))


def test_report_key_codec_round_trips(racy_system):
    for key in racy_system.detector._seen_keys:
        assert decode_report_key(encode_report_key(key)) == key


# ---------------------------------------------------------------------- #
# Mid-epoch snapshot: serialize after epoch k, restore on another pid,
# finish the remaining epochs — reports must match the uninterrupted
# detector byte for byte, across a seed sweep.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mid_run_migration_reproduces_reports(seed):
    uninterrupted = _run_system("water", seed=seed)
    migrated = _run_system("water", seed=seed, master_failover=True,
                           crash_at=((0, 1),))
    assert (sorted(str(r) for r in migrated.detector.races)
            == sorted(str(r) for r in uninterrupted.detector.races))
    # The migrated detector genuinely is a different object on a
    # different pid, restored through the journal.
    assert migrated.coordinator.pid == 1
    assert migrated.detector.master_pid == 1
    assert migrated.coordinator.stats.elections_held == 1
