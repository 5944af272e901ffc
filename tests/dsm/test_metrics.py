"""``RunResult.metrics``: one dotted name per counter.

The registry is checked against the objects the counters live on, not
against ``RunResult``'s convenience properties: every ``BENCHMARK.json``
count is present on every run, each of the benchmark's 33 additive
counters equals what its layer holds, and every int field of the stats
dataclasses sits under exactly one name.
"""

import json
import os
from dataclasses import fields

import pytest

from repro.apps.registry import get_app
from repro.core.concurrency import PairSearchStats
from repro.core.detector import DetectorStats
from repro.dsm.coordinator import FailoverStats, ShardingStats
from repro.dsm.cvm import CVM, METRIC_RENAMES, metric_name
from repro.net.stats import TrafficStats
from repro.sim.crash import CrashStats

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: Per-layer counts only a traced spine rep can measure.
TRACED_ONLY = {"dsm.env.scalar_calls", "dsm.env.range_calls",
               "dsm.interval.live_records_hwm"}

#: The stats dataclass behind each layer prefix, and where a run keeps it.
STATS_LAYERS = (
    ("core.detector", DetectorStats, lambda s: s.detector.stats),
    ("net.transport", TrafficStats, lambda s: s.transport.stats),
    ("sim.crash", CrashStats, lambda s: s.crash_stats),
    ("dsm.failover", FailoverStats, lambda s: s.coordinator.stats),
    ("dsm.sharding", ShardingStats, lambda s: s.coordinator.sharding_stats),
)


def benchmark_counts():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer"]
            if m["unit"] in ("count", "bytes")} - TRACED_ONLY


def stress(env, intervals):
    """The spine's ``detect_stress`` shape: every process under its own
    lock, so the epoch is one quadratic block of concurrent intervals
    sharing pages but not words, plus one racy word."""
    psz = env.system.config.page_size_words
    base = env.malloc(2 * psz, name="field", page_aligned=True)
    racy = env.malloc(psz, name="racy", page_aligned=True)
    for it in range(intervals):
        with env.locked(env.pid):
            for pg in range(2):
                env.store(base + pg * psz + env.pid, it)
        if env.pid < 2 and it == 0:
            env.store(racy, env.pid)
    env.barrier()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("metrics")
    water, sor = get_app("water"), get_app("sor")
    trace = str(tmp / "sor.trace")
    out = {}
    system = CVM(water.config(nprocs=4, loss_rate=0.05, fault_seed=7,
                              checkpoint_dir=str(tmp / "ckpt")))
    out["water@4-lossy-ckpt"] = system, system.run(water.func,
                                                   water.default_params)
    system = CVM(water.config(nprocs=16, sharded_detection=True))
    out["stress@16-sharded"] = system, system.run(stress, 6)
    for mode in ("record", "detect-offline"):
        system = CVM(sor.config(nprocs=4, mode=mode, trace_file=trace))
        out[f"sor@4-{mode}"] = system, system.run(sor.func,
                                                  sor.default_params)
    return out


def additive(system):
    """The benchmark's 33 additive counters, read off the layer objects."""
    detector = system.detector
    stats = detector.stats if detector else DetectorStats()
    traffic = system.transport.stats
    protocol = system.protocol.stats()
    locks = system.sync.locks.values()
    recorded = (system.lock_order.stats()
                if system.config.mode == "record" else {})
    return {
        "sim.scheduler.switches": system.scheduler.switches,
        "sim.scheduler.yields": sum(
            p.yields for p in system.scheduler.processes.values()),
        "dsm.env.words": sum(n.shared_instr_calls for n in system.nodes),
        **{f"dsm.protocol.{key}": protocol[key]
           for key in ("read_faults", "write_faults", "invalidations",
                       "ownership_transfers")},
        "dsm.sync.lock_acquires": sum(s.acquires for s in locks),
        "dsm.sync.contended_acquires": sum(s.contended for s in locks),
        "dsm.sync.barriers": system.sync.barrier_state.generation,
        "dsm.interval.created": system.store.total_created,
        "net.transport.messages": traffic.total_messages,
        "net.transport.bytes": traffic.total_bytes,
        "net.transport.read_notice_bytes": traffic.read_notice_bytes,
        "net.transport.bitmap_round_bytes": traffic.bitmap_round_bytes,
        "net.transport.digest_bytes": traffic.digest_bytes,
        "net.reliable.retransmits": traffic.retransmits,
        "net.reliable.drops": traffic.drops,
        "net.reliable.duplicates": traffic.duplicates,
        "net.reliable.acks": traffic.acks,
        "core.detector.epochs": stats.epochs_checked,
        "core.detector.intervals": stats.intervals_total,
        "core.detector.comparisons": stats.interval_comparisons,
        "core.detector.concurrent_pairs": stats.concurrent_pairs,
        "core.detector.checklist_entries": stats.overlapping_pairs,
        "core.detector.bitmaps_fetched": stats.bitmaps_fetched,
        "core.detector.pairs_filtered": stats.pairs_filtered,
        "core.detector.races": stats.races_found,
        "core.detector.probes": (detector.actual_comparisons
                                 if detector else 0),
        "dsm.checkpoint.takes": system.crash_stats.checkpoints_written,
        "dsm.checkpoint.bytes_written": system.crash_stats.checkpoint_bytes,
        "replay.trace.entries": recorded.get("entries_recorded", 0),
        "replay.trace.bytes": recorded.get("trace_bytes", 0),
    }


def test_every_benchmark_count_is_on_every_run(runs):
    wanted = benchmark_counts()
    for label, (_system, res) in runs.items():
        assert wanted <= set(res.metrics), (label,
                                            wanted - set(res.metrics))


def test_additive_counters_equal_their_layers(runs):
    for label, (system, res) in runs.items():
        expected = additive(system)
        assert len(expected) == 33
        assert {name: res.metrics[name] for name in expected} == expected, \
            label


def test_the_runs_exercise_what_they_are_for(runs):
    m = {label: res.metrics for label, (_sys, res) in runs.items()}
    assert m["water@4-lossy-ckpt"]["net.reliable.retransmits"] > 0
    assert m["water@4-lossy-ckpt"]["dsm.checkpoint.bytes_written"] > 0
    assert m["stress@16-sharded"]["dsm.sharding.epochs_sharded"] > 0
    assert m["stress@16-sharded"]["core.detector.races"] > 0
    assert m["sor@4-record"]["replay.trace.entries"] > 0
    assert (m["sor@4-detect-offline"]["replay.trace.deliveries_verified"]
            == m["sor@4-record"]["replay.trace.deliveries"] > 0)


def test_every_stats_field_has_exactly_one_name(runs):
    names = {}
    for layer, cls, _get in STATS_LAYERS:
        for f in fields(cls):
            if f.type in (int, "int"):
                names[(cls.__name__, f.name)] = metric_name(layer, f.name)
    assert {cls for cls, _field in names} == {
        cls.__name__ for _layer, cls, _get in STATS_LAYERS}
    assert len(set(names.values())) == len(names)
    for label, (system, res) in runs.items():
        for layer, cls, get in STATS_LAYERS:
            if layer == "core.detector" and system.detector is None:
                continue
            obj = get(system)
            for f in fields(cls):
                if (cls.__name__, f.name) in names:
                    assert res.metrics[names[cls.__name__, f.name]] == \
                        getattr(obj, f.name), (label, f.name)
    # A pair search's per-epoch counters are summed into DetectorStats, so
    # each names a core.detector counter.
    for f in fields(PairSearchStats):
        assert metric_name("core.detector", f.name) in names.values()


def test_renames_cover_only_names_that_differ():
    for old, new in METRIC_RENAMES.items():
        assert old != new
        assert new not in METRIC_RENAMES
