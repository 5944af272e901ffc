"""The paper's §1 headline claims, measured end to end."""

import pytest

from repro.apps.registry import APPLICATIONS
from repro.dsm.cvm import CVM
from repro.instrument.binaries import table2_reports


@pytest.fixture(scope="module")
def runs():
    return {name: spec.run(nprocs=8)
            for name, spec in APPLICATIONS.items()}


def test_claim_i_static_elimination_over_99_percent():
    """(i) 'we can statically eliminate over 99% of all load and store
    instructions as potential race participants'."""
    for app, report in table2_reports().items():
        assert report.eliminated_fraction > 0.99, app


def test_claim_ii_dynamic_elimination_over_70_percent(runs):
    """(ii) 'we dynamically eliminate over 70% of all program execution
    from consideration by using LRC ordering information' — the share of
    intervals never involved in any unsynchronized-sharing pair, averaged
    over the applications."""
    unused = [1.0 - res.detector_stats.intervals_used_fraction
              for res in runs.values()]
    assert sum(unused) / len(unused) > 0.7


def test_claim_iii_slowdown_factor_of_two(runs):
    """(iii) 'the slowdown ... is approximately a factor of two'."""
    from repro.apps.base import measure
    slowdowns = [measure(spec, nprocs=8).slowdown
                 for spec in APPLICATIONS.values()]
    avg = sum(slowdowns) / len(slowdowns)
    assert 1.5 < avg < 2.8


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_findings_stable_across_schedules(seed):
    """The qualitative findings — which variables race, and in which
    programs — hold under every scheduling seed, even though the exact
    number of race pairs varies with the interleaving."""
    for app, racy_symbol in (("tsp", "tsp_bound"),
                             ("water", "water_poteng")):
        spec = APPLICATIONS[app]
        res = CVM(spec.config(nprocs=4, policy="random",
                              seed=seed)).run(spec.func, spec.default_params)
        assert res.races, (app, seed)
        assert all(r.symbol.split("+")[0] == racy_symbol
                   for r in res.races), (app, seed)
    for app in ("fft", "sor"):
        spec = APPLICATIONS[app]
        res = CVM(spec.config(nprocs=4, policy="random",
                              seed=seed)).run(spec.func, spec.default_params)
        assert res.races == [], (app, seed)


@pytest.mark.slow
def test_paper_scale_inputs_runnable():
    """The paper's Table 1 input sets actually run (slow: minutes)."""
    spec = APPLICATIONS["sor"]
    res = spec.run(nprocs=8, params=spec.paper_params,
                   segment_words=1 << 20)
    assert res.races == []
    # 512x512 doubles x 2 grids
    assert res.metrics["dsm.segment.high_water_kbytes"] > 2000
