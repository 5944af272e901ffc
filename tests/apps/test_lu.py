"""LU decomposition: correctness, race-freedom, and the seeded pivot bug."""

import pytest

from repro.apps.lu import LuParams, lu, reference_lu_trace
from repro.core.report import RaceKind, involves_symbol
from repro.dsm.config import DsmConfig
from repro.dsm.cvm import CVM

SMALL = LuParams(n=16)


def run(params=SMALL, nprocs=4, **overrides):
    cfg = DsmConfig(nprocs=nprocs, page_size_words=64,
                    segment_words=1 << 14, **overrides)
    return CVM(cfg).run(lu, params)


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_matches_sequential_reference(nprocs):
    res = run(nprocs=nprocs)
    expected = reference_lu_trace(SMALL.n)
    assert res.results == [pytest.approx(expected)] * nprocs


def test_properly_synchronized_is_race_free():
    res = run(nprocs=4)
    assert res.races == []


def test_pipelined_sharing_exercises_bitmaps_without_races():
    """Rows interleave on pages: page-level overlap (pivot-row readers vs
    trailing-row writers) is pure false sharing.  The two-level filter is
    pinned off: this test exercises the unfiltered bitmap round."""
    res = run(nprocs=4, coarse_filter=False)
    st = res.detector_stats
    assert st.overlapping_pairs > 0
    assert st.bitmaps_fetched > 0
    assert res.races == []


def test_coarse_filter_proves_false_sharing_without_fetches():
    """The same false sharing through the two-level filter: the granule
    digests prove every overlapping pair race-free, so the bitmap round
    vanishes entirely — and the verdicts are unchanged."""
    res = run(nprocs=4)  # coarse_filter defaults on
    st = res.detector_stats
    assert st.overlapping_pairs > 0
    assert st.bitmaps_fetched == 0
    assert st.pairs_filtered > 0
    assert st.granule_hits == 0
    assert res.races == []


def test_missing_pivot_barrier_races_on_matrix():
    res = run(LuParams(n=16, skip_pivot_barrier=True), nprocs=4)
    assert res.races, "removing the pivot barrier must produce races"
    assert all(involves_symbol(r, "lu_matrix") for r in res.races)
    assert any(r.kind is RaceKind.READ_WRITE for r in res.races)


def test_barrier_count_scales_with_steps():
    res = run(nprocs=2)
    # One barrier per elimination step plus init/readback/final.
    assert res.metrics["dsm.sync.barriers"] >= SMALL.n - 1
    assert res.intervals_per_barrier == 2.0


def test_oracle_agreement_on_buggy_variant():
    from tests.helpers import online_race_keys
    from repro.core.baseline import HappensBeforeDetector
    cfg = DsmConfig(nprocs=3, page_size_words=64, segment_words=1 << 14,
                    track_access_trace=True)
    system = CVM(cfg)
    res = system.run(lu, LuParams(n=10, skip_pivot_barrier=True))
    online = online_race_keys(res)
    oracle = HappensBeforeDetector(system.store.vc_log).races(
        res.access_trace)
    assert online == oracle
