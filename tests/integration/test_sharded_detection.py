"""Sharded distributed epoch detection: cross-engine equivalence.

The guarantee under test (``--sharded-detection``): partitioning the
epoch's pair search across the live processes and tree-reducing the
candidate reports back to the coordinator produces **byte-identical**
RaceReports — same order, same dedup keys, same verdicts — as the
centralized engine, on every registered application, under lossy
networks, node crashes, and coordinator failover; and a shard owner
dying mid-phase degrades to coordinator-local detection for that epoch
*soundly*, never silently dropping a race.  The distribution protocol's
traffic is priced under ``CostCategory.SHARDED_DETECT``, outside the
overhead breakdown, so sharding-off artifacts stay byte-identical.
"""

import pytest

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.dsm.coordinator import ShardingStats
from repro.sim.costmodel import OVERHEAD_CATEGORIES, CostCategory

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)


def paired_runs(app: str, nprocs: int = 8, **overrides):
    spec = get_app(app)
    if app == "queue_racy":
        nprocs = 3
    sharded = spec.run(nprocs=nprocs, sharded_detection=True, **overrides)
    central = spec.run(nprocs=nprocs, **overrides)
    return sharded, central


def assert_identical_reports(sharded, central):
    """The full byte-identity contract: report strings in order, dedup
    keys, verdicts, unverifiable entries, and the whole DetectorStats
    (including per-epoch history).  Runtimes are deliberately *not*
    compared — moving the comparison work to the owners' clocks is the
    point of sharding."""
    assert [str(r) for r in sharded.races] == [str(r) for r in central.races]
    assert ([r.key() for r in sharded.races]
            == [r.key() for r in central.races])
    assert ([str(e) for e in sharded.unverifiable]
            == [str(e) for e in central.unverifiable])
    assert sharded.detector_stats == central.detector_stats


# ---------------------------------------------------------------------- #
# Fault-free equivalence across every registered application.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("app", ALL_APPS)
def test_sharded_matches_centralized(app):
    sharded, central = paired_runs(app)
    assert_identical_reports(sharded, central)
    sh = sharded.sharding_stats
    assert sh.epochs_sharded > 0
    assert sharded.config.sharded_detection


@pytest.mark.parametrize("app", ["tsp", "water"])
def test_sharded_matches_centralized_16_procs(app):
    """The scale-out shape sharding exists for: more processes, more
    cross-process pair blocks per epoch."""
    sharded, central = paired_runs(app, nprocs=16)
    assert_identical_reports(sharded, central)
    assert sharded.sharding_stats.shards_dispatched > 0


def test_sharded_matches_reference_engine():
    """Transitivity check against the paper's literal O(i²p²) engine:
    sharded + fast path ≡ centralized reference."""
    spec = get_app("tsp")
    sharded = spec.run(nprocs=8, sharded_detection=True,
                       detector_fast_path=True)
    ref = spec.run(nprocs=8, detector_fast_path=False)
    assert_identical_reports(sharded, ref)


def test_sharded_matches_centralized_consolidation():
    sharded, central = paired_runs("tsp", consolidation_interval=6)
    assert_identical_reports(sharded, central)


def test_sharded_matches_centralized_first_races_only():
    sharded, central = paired_runs("water", first_races_only=True)
    assert_identical_reports(sharded, central)


def test_sharded_matches_centralized_multi_writer():
    sharded, central = paired_runs("water", protocol="mw",
                                   diff_write_detection=True)
    assert_identical_reports(sharded, central)


# ---------------------------------------------------------------------- #
# Faults: lossy network, node crashes, coordinator failover.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("loss,dup", [(0.05, 0.0), (0.02, 0.05)])
def test_sharded_matches_centralized_lossy(loss, dup):
    """Sharding traffic rides the same reliable channel as everything
    else; drops and duplicates must not perturb the verdicts."""
    sharded, central = paired_runs("tsp", loss_rate=loss,
                                   duplicate_rate=dup, fault_seed=2)
    assert_identical_reports(sharded, central)


@pytest.mark.parametrize("crash_seed", [7, 11])
def test_sharded_matches_centralized_crashy_checkpointed(crash_seed):
    """With checkpoints, recovery regenerates detection metadata exactly,
    so even runs that crash (including possible detect-phase owner
    crashes) report byte-identically to the centralized engine under the
    same schedule."""
    sharded, central = paired_runs("tsp", nprocs=4, crash_rate=0.02,
                                   crash_seed=crash_seed, checkpoint=True)
    assert_identical_reports(sharded, central)


#: The first ``crash_seed`` whose (hash-derived, deterministic) schedule at
#: ``crash_rate=0.05`` on 4-process tsp kills a shard owner mid-detect, with
#: or without checkpoints.  If a schedule change moves it, the
#: ``fallbacks_owner_crash`` assertions below fail: re-pin, do not loop.
OWNER_CRASH_SEED = 14


def test_shard_owner_crash_falls_back_soundly():
    """An owner dies mid-shard: the epoch must fall back to
    coordinator-local detection, and with checkpoints on the reports still
    match the centralized run."""
    sharded, central = paired_runs(
        "tsp", nprocs=4, crash_rate=0.05, crash_seed=OWNER_CRASH_SEED,
        checkpoint=True)
    assert sharded.sharding_stats.fallbacks_owner_crash > 0, (
        "no detect-phase owner crash fired")
    assert_identical_reports(sharded, central)


def test_shard_owner_crash_without_checkpoints_is_sound():
    """Without checkpoints a detect-phase owner crash loses that node's
    epoch metadata; the fallback pass degrades those checks to explicit
    unverifiable entries — a race may be missed only if one of its sides
    is covered by an unverifiable pair, never silently."""
    spec = get_app("tsp")
    sharded = spec.run(nprocs=4, sharded_detection=True,
                       crash_rate=0.05, crash_seed=OWNER_CRASH_SEED)
    assert sharded.sharding_stats.fallbacks_owner_crash > 0, (
        "no detect-phase owner crash fired")
    clean = spec.run(nprocs=4)
    found = {r.key() for r in sharded.races}
    sides = {(e.a.pid, e.a.index) for e in sharded.unverifiable} \
        | {(e.b.pid, e.b.index) for e in sharded.unverifiable}
    for race in clean.races:
        if race.key() in found:
            continue
        race_sides = {(race.a.pid, race.a.index),
                      (race.b.pid, race.b.index)}
        assert race_sides & sides, (
            f"race silently dropped with no unverifiable trace: {race}")


def test_sharded_matches_centralized_under_failover():
    """Coordinator dies at generation 1: the elected successor keeps
    sharding the remaining epochs and the reports stay byte-identical."""
    sharded, central = paired_runs("tsp", nprocs=4, crash_at=((0, 1),),
                                   master_failover=True, checkpoint=True)
    assert_identical_reports(sharded, central)
    assert sharded.failover_stats.elections_held == 1
    assert sharded.sharding_stats.epochs_sharded > 0


# ---------------------------------------------------------------------- #
# Determinism and accounting.
# ---------------------------------------------------------------------- #
def test_sharded_run_is_deterministic():
    spec = get_app("tsp")
    a = spec.run(nprocs=8, sharded_detection=True)
    b = spec.run(nprocs=8, sharded_detection=True)
    assert [str(r) for r in a.races] == [str(r) for r in b.races]
    assert a.runtime_cycles == b.runtime_cycles
    assert a.sharding_stats == b.sharding_stats
    for la, lb in zip(a.ledgers, b.ledgers):
        assert la.totals == lb.totals


def test_sharding_traffic_priced_under_its_own_category():
    sharded, central = paired_runs("tsp")
    agg = sharded.aggregate_ledger().totals
    assert agg[CostCategory.SHARDED_DETECT] > 0
    # ... and never with sharding off:
    assert central.aggregate_ledger().totals[
        CostCategory.SHARDED_DETECT] == 0.0
    assert CostCategory.SHARDED_DETECT not in OVERHEAD_CATEGORIES


def test_sharding_off_stats_are_zero():
    res = get_app("tsp").run(nprocs=8)
    assert not res.config.sharded_detection
    assert res.sharding_stats == ShardingStats()


def test_sharding_message_tags_ride_the_network(monkeypatch):
    """The scatter / meta-fetch / bitmap-fetch / reduce exchanges are real
    transport messages with their own tags."""
    from repro.dsm.cvm import CVM

    spec = get_app("tsp")
    cfg = spec.config(nprocs=8, sharded_detection=True)
    system = CVM(cfg)
    tags = []
    orig = system.net.send

    def spy(tag, src, dst, payload, nbytes, clock, **kw):
        tags.append(tag)
        return orig(tag, src, dst, payload, nbytes, clock, **kw)

    monkeypatch.setattr(system.net, "send", spy)
    system.run(spec.func, spec.default_params)
    seen = set(tags)
    assert {"detect_shard", "shard_bitmap_request", "shard_bitmap_reply",
            "shard_reduce"} <= seen
