"""TSP: optimality, the benign bound race, interval structure."""

from itertools import permutations

import pytest

from repro.apps.registry import APPLICATIONS
from repro.apps.tsp import TspParams, _distance_matrix, tsp
from repro.core.report import involves_symbol
from repro.dsm.cvm import CVM

SPEC = APPLICATIONS["tsp"]
SMALL = TspParams(ncities=8, seed_depth=3)


def brute_force_optimum(n):
    dist = _distance_matrix(n)
    best = None
    for perm in permutations(range(1, n)):
        tour = (0,) + perm
        total = sum(dist[tour[i] * n + tour[(i + 1) % n]] for i in range(n))
        best = total if best is None else min(best, total)
    return best


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_finds_optimal_tour(nprocs):
    res = CVM(SPEC.config(nprocs=nprocs)).run(tsp, SMALL)
    expected = brute_force_optimum(SMALL.ncities)
    assert res.results == [expected] * nprocs


def test_races_confined_to_tour_bound():
    """The paper's §5 headline for TSP: a large number of read-write data
    races, all on the global tour bound, all benign."""
    res = SPEC.run(nprocs=8)
    assert len(res.races) > 0
    assert all(involves_symbol(r, "tsp_bound") for r in res.races)
    assert all(r.kind.value == "read-write" for r in res.races)
    # The unsynchronized side is always a read (bound updates are locked).
    for r in res.races:
        kinds = {s.access for s in (r.a, r.b)}
        assert kinds == {"read", "write"}


def test_race_sites_marked():
    res = SPEC.run(nprocs=4)
    labels = {s.sync_label for r in res.races for s in (r.a, r.b)}
    assert labels  # intervals carry their opening synchronization labels


def test_optimum_unaffected_by_races():
    """Benign means benign: different schedules, same answer."""
    outs = set()
    for seed in (0, 1, 2):
        res = CVM(SPEC.config(nprocs=4, policy="random",
                              seed=seed)).run(tsp, SMALL)
        outs.update(res.results)
    assert len(outs) == 1


def test_interval_heavy_structure():
    res = SPEC.run(nprocs=8)
    # Lock-based work queue: far more intervals per barrier than the
    # barrier-only applications (Table 1: TSP has by far the most).
    assert res.intervals_per_barrier > 5
    assert res.metrics["dsm.sync.lock_acquires"] > 20


def test_high_intervals_used_low_bitmaps_used():
    res = SPEC.run(nprocs=8)
    st = res.detector_stats
    # Table 3 TSP row: most intervals see unsynchronized sharing, a
    # minority of bitmaps must be fetched.
    assert st.intervals_used_fraction > 0.5
    assert st.bitmaps_used_fraction < st.intervals_used_fraction
