"""The irregular DSL workloads (wsdeque, bfs, hashtab) on the
instrument→dsm bridge.

Each app exists in two variants driven by one parameter: the default
racy build must report its seeded races (deque steal/pop index
collisions, unsynchronized visit counters, bucket-chain splices), and
``with_sync=True`` — the identical workload under its lock — must
report zero.  On top, the detection axes the registry sweeps for the
scalar apps are pinned here explicitly for the bridge-backed ones:
the access engine vs its per-word spec, centralized vs sharded detection,
coarse filter off vs on all produce byte-identical reports.
"""

import pytest

from tests.dsm.reference_env import reference_engine

from repro.apps.bfs import BfsParams, bfs
from repro.apps.hashtab import HashTabParams, hashtab
from repro.apps.registry import EXTRAS, get_app
from repro.apps.wsdeque import WsDequeParams, wsdeque
from repro.core.report import RaceKind
from repro.dsm.cvm import CVM

DSL_APPS = ("wsdeque", "bfs", "hashtab")
SYNCED = {
    "wsdeque": WsDequeParams(with_sync=True),
    "bfs": BfsParams(with_sync=True),
    "hashtab": HashTabParams(with_sync=True),
}


def run(app, nprocs=4, params=None, **overrides):
    spec = get_app(app)
    return spec.run(nprocs=nprocs, params=params, **overrides)


# ---------------------------------------------------------------------- #
# Registration and the racy/synced contract.
# ---------------------------------------------------------------------- #
def test_registered_as_extras():
    for app in DSL_APPS:
        assert app in EXTRAS
        assert EXTRAS[app].expect_races


@pytest.mark.parametrize("app", DSL_APPS)
@pytest.mark.parametrize("nprocs", [3, 4, 8])
def test_racy_variant_reports_races(app, nprocs):
    res = run(app, nprocs=nprocs)
    assert res.races, f"{app} at {nprocs} procs seeded no races"


@pytest.mark.parametrize("app", DSL_APPS)
@pytest.mark.parametrize("nprocs", [3, 4, 8])
def test_synced_variant_is_race_free(app, nprocs):
    res = run(app, nprocs=nprocs, params=SYNCED[app])
    assert res.races == []


def test_deque_races_hit_the_index_words():
    """The steal/pop collision: top and bottom live in the Deque record
    (heap words 0 and 1 of the pid-0 arena allocation)."""
    res = run("wsdeque", nprocs=4)
    kinds = {r.kind for r in res.races}
    assert RaceKind.WRITE_WRITE in kinds or RaceKind.READ_WRITE in kinds
    assert all(r.symbol.startswith("dslheap:wsdeque") for r in res.races)


def test_bfs_races_are_write_write_on_visit_counters():
    res = run("bfs", nprocs=4)
    assert any(r.kind is RaceKind.WRITE_WRITE for r in res.races)


def test_hashtab_races_on_bucket_heads():
    res = run("hashtab", nprocs=4)
    assert any(r.kind is RaceKind.WRITE_WRITE for r in res.races)
    assert all(r.symbol.startswith("dslheap:hashtab") for r in res.races)


# ---------------------------------------------------------------------- #
# Determinism and engine equivalence (the four detection axes).
# ---------------------------------------------------------------------- #
def _keyed(res):
    return ([str(r) for r in res.races], res.detector_stats)


@pytest.mark.parametrize("app", DSL_APPS)
def test_runs_are_deterministic(app):
    assert _keyed(run(app)) == _keyed(run(app))
    assert run(app).results == run(app).results


@pytest.mark.parametrize("app", DSL_APPS)
def test_scalar_engine_matches_batched(app):
    """The per-word spec of the access engine (tests/dsm/reference_env.py)
    under the bridge's scalar loads and stores."""
    production = run(app, nprocs=4)
    with reference_engine():
        reference = run(app, nprocs=4)
    assert _keyed(production) == _keyed(reference)
    assert production.runtime_cycles == reference.runtime_cycles


@pytest.mark.parametrize("app", DSL_APPS)
def test_sharded_matches_centralized(app):
    central = run(app, nprocs=8)
    sharded = run(app, nprocs=8, sharded_detection=True)
    assert [str(r) for r in central.races] == [str(r) for r in sharded.races]


@pytest.mark.parametrize("app", DSL_APPS)
def test_coarse_filter_preserves_reports(app):
    off = run(app, nprocs=8, coarse_filter=False)
    on = run(app, nprocs=8, coarse_filter=True)
    assert [str(r) for r in off.races] == [str(r) for r in on.races]
    assert on.detector_stats.bitmaps_fetched <= \
        off.detector_stats.bitmaps_fetched


# ---------------------------------------------------------------------- #
# Bridge mechanics observable from the outside.
# ---------------------------------------------------------------------- #
def test_detection_off_still_runs():
    for app in DSL_APPS:
        res = run(app, detection=False)
        assert res.races == []


def test_hashtab_lookups_find_inserted_values():
    """Synced variant is semantically exact: every lookup hits and every
    remove succeeds, so each pid's sum is fully determined."""
    p = HashTabParams(with_sync=True, nb=4, keys_per_pid=3, rounds=2)
    res = run("hashtab", nprocs=4, params=p)
    for pid, total in enumerate(res.results):
        keys = [pid * p.keys_per_pid + i for i in range(p.keys_per_pid)]
        expect = sum(1000 * (r + 1) + k
                     for r in range(p.rounds) for k in keys)
        expect += p.rounds * p.keys_per_pid  # one per successful remove
        assert total == expect


def test_bfs_visits_whole_tree():
    """Every pid's traversal sum covers all 2^depth - 1 nodes (vals are
    1..nnodes by construction)."""
    p = BfsParams(with_sync=True, depth=3)
    res = run("bfs", nprocs=4, params=p)
    nnodes = 2 ** p.depth - 1
    assert res.results == [sum(range(1, nnodes + 1))] * 4


def test_private_instrumentation_flows_to_table3_accounting():
    """Stack accesses the filter could not prove private (local-array
    frontier in bfs) must surface as private analysis calls, the
    paper's Table 3 'false' instrumentations."""
    res = run("bfs", nprocs=4)
    assert res.detector_stats is not None
    stats = res.metrics["dsm.env.private_words"]
    assert stats > 0


# ---------------------------------------------------------------------- #
# Lowering happens at image build, never in a simulation thread.
# ---------------------------------------------------------------------- #
def test_simulation_threads_never_lower(monkeypatch):
    """``compiled_image`` returns a fully lowered binary, so the sixteen
    app threads only execute: block compilation inside them would leave
    its transient allocations in every thread's arena (peak RSS +15 %
    when PR 18 tried it).  And the lowered form lives on the image,
    nowhere else: clearing the image cache and rebuilding lowers again —
    ``instrument.compile_s`` times that build from a cleared cache."""
    from repro.apps.dsl import compiled_image
    from repro.apps.hashtab import SOURCE
    from repro.instrument import lower

    compiles = []
    real_compile = lower._compile

    def counting(source, filename):
        compiles.append(filename)
        return real_compile(source, filename)

    monkeypatch.setattr(lower, "_compile", counting)
    compiled_image.cache_clear()
    image = compiled_image("hashtab", SOURCE)
    built = len(compiles)
    assert built == len(image.functions) > 0
    assert compiled_image("hashtab", SOURCE) is image    # cached: no work
    assert len(compiles) == built

    def refuse(source, filename):
        raise AssertionError(f"lowering {filename} inside a run")

    monkeypatch.setattr(lower, "_compile", refuse)
    assert run("hashtab", nprocs=4).races

    monkeypatch.setattr(lower, "_compile", counting)
    compiled_image.cache_clear()
    compiled_image("hashtab", SOURCE)
    assert len(compiles) == 2 * built
