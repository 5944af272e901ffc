"""Two-phase pipeline: ``--mode record`` / ``--mode detect-offline``.

The guarantee under test: a record run executes with detection off and
logs only the synchronization order (lock grant order, barrier arrival
order, sync-message delivery order) to a hash-framed trace, and a replay
run steered by that trace with the full detector on produces race
reports **byte-identical** to a monolithic online run of the same seed
and configuration — for every registered application, at 4 and 16
processes, under lossy networks, and with any detection engine (fast
path, sharded, reference).  The trace framing detects torn or corrupt
files loudly, the config digest in the header refuses traces recorded
under a different execution, and the config layer refuses compositions
the mode cannot honor (crash injection, ``--resume-from``).
"""

import pytest

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.dsm.config import DsmConfig
from repro.errors import (ConfigError, ProcessFailure, ReplayError,
                          TraceError)
from repro.replay.trace import (SYNC_TAGS, SyncTrace, execution_digest,
                                load_trace, write_trace)
from repro.sim.costmodel import OVERHEAD_CATEGORIES, CostCategory

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)


def record_and_replay(app, tmp_path, nprocs=4, replay_overrides=None,
                      **overrides):
    """Run the full pipeline: record to a trace under ``tmp_path``, then
    replay it.  ``overrides`` apply to both runs (they shape the
    execution); ``replay_overrides`` only to the replay run (detection-
    side knobs the digest deliberately ignores)."""
    spec = get_app(app)
    if app == "queue_racy":
        nprocs = 3
    trace_path = str(tmp_path / f"{app}.trace")
    recorded = spec.run(nprocs=nprocs, mode="record",
                        trace_file=trace_path, **overrides)
    replayed = spec.run(nprocs=nprocs, mode="detect-offline",
                        trace_file=trace_path,
                        **{**overrides, **(replay_overrides or {})})
    return recorded, replayed, trace_path


def online_run(app, nprocs=4, **overrides):
    if app == "queue_racy":
        nprocs = 3
    return get_app(app).run(nprocs=nprocs, **overrides)


def assert_identical_reports(offline, online):
    """The byte-identity contract: report strings in order, dedup keys,
    unverifiable entries, and the whole DetectorStats."""
    assert [str(r) for r in offline.races] == [str(r) for r in online.races]
    assert ([r.key() for r in offline.races]
            == [r.key() for r in online.races])
    assert ([str(e) for e in offline.unverifiable]
            == [str(e) for e in online.unverifiable])
    assert offline.detector_stats == online.detector_stats


# ---------------------------------------------------------------------- #
# Equivalence: every registered app, 4 and 16 processes.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("app", ALL_APPS)
def test_replay_matches_online_4_procs(app, tmp_path):
    recorded, replayed, _ = record_and_replay(app, tmp_path, nprocs=4)
    assert_identical_reports(replayed, online_run(app, nprocs=4))
    assert recorded.metrics["replay.trace.entries"] > 0
    assert (replayed.metrics["replay.trace.deliveries_verified"]
            == recorded.metrics["replay.trace.deliveries"])


@pytest.mark.parametrize("app", ALL_APPS)
def test_replay_matches_online_16_procs(app, tmp_path):
    _, replayed, _ = record_and_replay(app, tmp_path, nprocs=16)
    assert_identical_reports(replayed, online_run(app, nprocs=16))


# ---------------------------------------------------------------------- #
# Equivalence: lossy networks (post-retransmit delivery order).
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("app,faults", [
    ("water", dict(loss_rate=0.05, fault_seed=7)),
    ("fft", dict(loss_rate=0.02, duplicate_rate=0.05,
                 reorder_rate=0.03, fault_seed=11)),
    ("tsp", dict(loss_rate=0.03, fault_seed=5)),
])
def test_replay_matches_online_lossy(app, faults, tmp_path):
    """The trace records what was actually *delivered* — once per logical
    message after every fragment and retransmission — so a lossy record
    run replays exactly like a lossy online run of the same fault seed."""
    recorded, replayed, _ = record_and_replay(app, tmp_path, **faults)
    assert_identical_reports(replayed, online_run(app, **faults))
    assert recorded.traffic.drops > 0


def test_replay_with_sharded_detector(tmp_path):
    """The detection engine is the replay run's choice: a sharded replay
    still matches the centralized online run (the digest deliberately
    excludes detection-side fields)."""
    _, replayed, _ = record_and_replay(
        "tsp", tmp_path, nprocs=8,
        replay_overrides=dict(sharded_detection=True))
    assert_identical_reports(replayed, online_run("tsp", nprocs=8))
    assert replayed.sharding_stats.epochs_sharded > 0


def test_replay_with_reference_detector(tmp_path):
    _, replayed, _ = record_and_replay(
        "tsp", tmp_path,
        replay_overrides=dict(detector_fast_path=False))
    assert_identical_reports(replayed, online_run("tsp", nprocs=4))


def test_replay_first_races_only(tmp_path):
    _, replayed, _ = record_and_replay("water", tmp_path,
                                       first_races_only=True)
    assert_identical_reports(
        replayed, online_run("water", first_races_only=True))


# ---------------------------------------------------------------------- #
# Record-run properties and accounting.
# ---------------------------------------------------------------------- #
def test_record_run_detects_nothing_and_sends_no_detection_traffic(tmp_path):
    recorded, _, _ = record_and_replay("water", tmp_path)
    assert recorded.races == []
    assert recorded.detector_stats is None
    assert not recorded.config.detection
    tags = set(recorded.traffic.messages_by_tag)
    assert not any(t.startswith(("bitmap_", "shard_")) for t in tags)
    assert "detect_shard" not in tags
    assert recorded.traffic.read_notice_bytes == 0


def test_record_cost_priced_outside_overhead(tmp_path):
    recorded, replayed, _ = record_and_replay("sor", tmp_path)
    assert CostCategory.RECORD not in OVERHEAD_CATEGORIES
    assert recorded.aggregate_ledger().totals[CostCategory.RECORD] > 0
    # ... and never charged on replay or online runs:
    assert replayed.aggregate_ledger().totals[CostCategory.RECORD] == 0.0
    online = online_run("sor")
    assert online.aggregate_ledger().totals[CostCategory.RECORD] == 0.0


def test_record_overhead_well_under_online_detection(tmp_path):
    """The point of the mode: logging synchronization order online costs
    a sliver of what online detection costs (bench_record.py commits the
    measured numbers; this is the coarse invariant)."""
    spec = get_app("water")
    base = spec.run(nprocs=4, detection=False)
    recorded, _, _ = record_and_replay("water", tmp_path)
    online = online_run("water")
    record_over = recorded.runtime_cycles / base.runtime_cycles
    online_over = online.runtime_cycles / base.runtime_cycles
    assert record_over < 1.2
    assert record_over < 1 + (online_over - 1) / 4


def test_record_runs_are_deterministic(tmp_path):
    """Same seed, same trace — byte for byte (the frame hash makes this a
    one-line comparison)."""
    _, _, path_a = record_and_replay("tsp", tmp_path)
    spec = get_app("tsp")
    path_b = str(tmp_path / "tsp_again.trace")
    spec.run(nprocs=4, mode="record", trace_file=path_b)
    with open(path_a) as fa, open(path_b) as fb:
        assert fa.read() == fb.read()


def test_record_forces_detection_off():
    cfg = DsmConfig(nprocs=4, detection=True, mode="record",
                    trace_file="/tmp/unused.trace")
    assert cfg.detection is False


# ---------------------------------------------------------------------- #
# Trace framing: torn and corrupt files fail loudly.
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sor_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "sor.trace"
    get_app("sor").run(nprocs=4, mode="record", trace_file=str(path))
    return str(path)


def _replay_sor(trace_path):
    return get_app("sor").run(nprocs=4, mode="detect-offline",
                              trace_file=trace_path)


def test_truncated_trace_tail_rejected(sor_trace, tmp_path):
    """A torn record-side write (the file lost its tail) breaks the hash
    frame: replay refuses it instead of steering a different execution."""
    framed = open(sor_trace).read()
    for cut in (1, 5, len(framed) // 2):
        torn = tmp_path / f"torn{cut}.trace"
        torn.write_text(framed[:-cut])
        with pytest.raises(TraceError, match="torn or corrupt"):
            _replay_sor(str(torn))


def test_corrupt_trace_byte_rejected(sor_trace, tmp_path):
    framed = open(sor_trace).read()
    mid = len(framed) // 3
    flipped = framed[:mid] + ("X" if framed[mid] != "X" else "Y") \
        + framed[mid + 1:]
    bad = tmp_path / "flipped.trace"
    bad.write_text(flipped)
    with pytest.raises(TraceError, match="torn or corrupt"):
        _replay_sor(str(bad))


def test_missing_trace_file_rejected(tmp_path):
    with pytest.raises(TraceError, match="cannot read trace file"):
        _replay_sor(str(tmp_path / "nope.trace"))


def test_unsupported_trace_version_rejected(sor_trace, tmp_path):
    trace = load_trace(sor_trace)
    payload = trace.to_payload()
    payload["version"] = 999
    with pytest.raises(TraceError, match="version"):
        SyncTrace.from_payload(payload)


def test_extra_recorded_entries_fail_replay(sor_trace, tmp_path):
    """A well-framed trace whose streams don't match the execution still
    fails loudly: here the replay finishes without consuming a bogus
    trailing delivery, and the enforcer refuses to under-verify."""
    trace = load_trace(sor_trace)
    trace.deliveries.append(("barrier_arrival", 1, 0))
    padded = tmp_path / "padded.trace"
    write_trace(trace, str(padded))  # re-frames, so the hash is valid
    with pytest.raises(ReplayError, match="before consuming"):
        _replay_sor(str(padded))


def test_mutated_delivery_stream_diverges(sor_trace, tmp_path):
    trace = load_trace(sor_trace)
    tag, src, dst = trace.deliveries[10]
    trace.deliveries[10] = (tag, dst, src)
    mutated = tmp_path / "mutated.trace"
    write_trace(trace, str(mutated))
    # The divergence fires inside a simulated process, so the scheduler
    # surfaces it wrapped in a ProcessFailure naming the ReplayError.
    with pytest.raises(ProcessFailure, match="replay diverged"):
        _replay_sor(str(mutated))


# ---------------------------------------------------------------------- #
# Config digest: replaying under a different execution is refused.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("mismatch", [
    dict(seed=1),
    dict(loss_rate=0.05, fault_seed=3),
    dict(page_size_words=32),
])
def test_digest_mismatch_rejected(sor_trace, mismatch):
    with pytest.raises(ConfigError) as exc:
        get_app("sor").run(nprocs=4, mode="detect-offline",
                           trace_file=sor_trace, **mismatch)
    msg = str(exc.value)
    assert "--mode detect-offline" in msg and "--trace-file" in msg


def test_digest_mismatch_wrong_nprocs(sor_trace):
    with pytest.raises(ConfigError, match="nprocs"):
        get_app("sor").run(nprocs=8, mode="detect-offline",
                           trace_file=sor_trace)


def test_digest_mismatch_wrong_app(sor_trace):
    with pytest.raises(ConfigError, match="app"):
        get_app("fft").run(nprocs=4, mode="detect-offline",
                           trace_file=sor_trace)


def test_digest_ignores_detection_side_fields():
    """Record (detection off) and replay (detection on, any engine) must
    agree on the digest, or the header check could never pass."""
    base = dict(nprocs=4, trace_file="/tmp/unused.trace")
    rec = DsmConfig(mode="record", **base)
    rep = DsmConfig(mode="detect-offline", detection=True,
                    sharded_detection=True, first_races_only=True,
                    detector_fast_path=False, **base)
    assert execution_digest(rec, "sor") == execution_digest(rep, "sor")
    # ... while execution-shaping fields do change it:
    other = DsmConfig(mode="record", nprocs=4, seed=1,
                      trace_file="/tmp/unused.trace")
    assert execution_digest(rec, "sor") != execution_digest(other, "sor")
    assert execution_digest(rec, "sor") != execution_digest(rec, "fft")


# ---------------------------------------------------------------------- #
# Config rejections: compositions the modes cannot honor.
# ---------------------------------------------------------------------- #
def test_mode_requires_trace_file():
    for mode in ("record", "detect-offline"):
        with pytest.raises(ConfigError, match="--trace-file"):
            DsmConfig(nprocs=4, mode=mode)


def test_trace_file_requires_two_phase_mode():
    with pytest.raises(ConfigError, match="--mode record"):
        DsmConfig(nprocs=4, trace_file="/tmp/x.trace")


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="--mode"):
        DsmConfig(nprocs=4, mode="offline")


@pytest.mark.parametrize("mode", ["record", "detect-offline"])
def test_mode_refuses_crash_injection(mode):
    with pytest.raises(ConfigError, match="--crash-rate/--crash-at"):
        DsmConfig(nprocs=4, mode=mode, trace_file="/tmp/x.trace",
                  crash_rate=0.01)
    with pytest.raises(ConfigError, match="--crash-rate/--crash-at"):
        DsmConfig(nprocs=4, mode=mode, trace_file="/tmp/x.trace",
                  crash_at=((1, 1),), checkpoint=True)


@pytest.mark.parametrize("mode", ["record", "detect-offline"])
def test_mode_refuses_resume(mode, tmp_path):
    with pytest.raises(ConfigError, match="--resume-from"):
        DsmConfig(nprocs=4, mode=mode, trace_file="/tmp/x.trace",
                  resume_from=str(tmp_path))


def test_config_error_names_both_flags():
    with pytest.raises(ConfigError) as exc:
        DsmConfig(nprocs=4, mode="record", trace_file="/tmp/x.trace",
                  crash_rate=0.01)
    msg = str(exc.value)
    assert "--mode record" in msg and "--crash-rate" in msg


# ---------------------------------------------------------------------- #
# SYNC_TAGS invariant: the recorded stream must be identical with
# detection on and off, or replay could never verify it.
# ---------------------------------------------------------------------- #
def test_sync_tag_stream_identical_with_and_without_detection():
    spec = get_app("tsp")
    on = spec.run(nprocs=4, detection=True)
    off = spec.run(nprocs=4, detection=False)
    for tag in SYNC_TAGS:
        assert (on.traffic.messages_by_tag.get(tag, 0)
                == off.traffic.messages_by_tag.get(tag, 0)), tag
