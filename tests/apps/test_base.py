"""App infrastructure: block distribution, AppSpec, paired measurement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.base import AppResult, band, measure
from repro.apps.registry import APPLICATIONS, EXTRAS, get_app


@given(st.integers(min_value=0, max_value=200),
       st.integers(min_value=1, max_value=16))
def test_band_partitions_exactly(total, nprocs):
    """Bands are contiguous, disjoint, ordered and cover [0, total)."""
    spans = [band(total, nprocs, pid) for pid in range(nprocs)]
    assert spans[0][0] == 0
    assert spans[-1][1] == total
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert a_hi == b_lo
        assert a_lo <= a_hi and b_lo <= b_hi
    sizes = [hi - lo for lo, hi in spans]
    assert max(sizes) - min(sizes) <= 1  # balanced


def test_get_app_known_and_unknown():
    assert get_app("tsp").name == "tsp"
    assert get_app("queue_racy").name == "queue_racy"
    assert get_app("lu").name == "lu"
    with pytest.raises(KeyError):
        get_app("doom")


def test_spec_config_overrides():
    spec = APPLICATIONS["sor"]
    cfg = spec.config(nprocs=2, detection=False, page_size_words=32)
    assert cfg.nprocs == 2 and not cfg.detection
    assert cfg.page_size_words == 32


def test_measure_pairs_identical_workload():
    result = measure(APPLICATIONS["sor"], nprocs=2)
    assert isinstance(result, AppResult)
    # Same workload both runs: identical app results, identical base
    # interval structure.
    assert result.base.results == result.detected.results
    assert result.base.metrics["dsm.sync.barriers"] == \
        result.detected.metrics["dsm.sync.barriers"]
    assert result.slowdown > 1.0
    # The undetected run carries no detector state at all.
    assert result.base.detector_stats is None
    assert result.base.races == []


def test_paper_params_are_larger():
    for spec in APPLICATIONS.values():
        assert spec.paper_params != spec.default_params
