"""Cross-validate the online detector against the oracles on the real
applications (small inputs, traced runs)."""

import pytest

from tests.helpers import online_race_keys

from repro.apps.fft import PAPER_PARAMS as FFT_PAPER_PARAMS
from repro.apps.fft import FftParams
from repro.apps.lu import PAPER_PARAMS as LU_PAPER_PARAMS
from repro.apps.registry import APPLICATIONS, get_app
from repro.apps.sor import PAPER_PARAMS as SOR_PAPER_PARAMS
from repro.apps.sor import SorParams
from repro.apps.tsp import TspParams
from repro.apps.water import WaterParams
from repro.core.baseline import HappensBeforeDetector, PostMortemAnalyzer
from repro.dsm.cvm import CVM

SMALL_PARAMS = {
    "sor": SorParams(rows=8, cols=64, iterations=2),
    "fft": FftParams(n=8, iterations=1),
    "tsp": TspParams(ncities=7),
    "water": WaterParams(nmol=8, steps=1),
}


def oracle_keys(app, params, nprocs):
    """Run ``app`` traced; the happens-before oracle's key set, once the
    online detector and the post-mortem analysis have both matched it."""
    spec = get_app(app)
    cfg = spec.config(nprocs=nprocs, track_access_trace=True,
                      segment_words=spec.segment_words(params, nprocs))
    system = CVM(cfg)
    result = system.run(spec.func, params)

    online = online_race_keys(result)
    hb = HappensBeforeDetector(system.store.vc_log).races(result.access_trace)
    pm = PostMortemAnalyzer(system.store.vc_log).races(result.access_trace)

    assert online == hb, (
        f"{app}: online detector disagrees with happens-before oracle\n"
        f"missed: {sorted(hb - online)[:4]}\nphantom: {sorted(online - hb)[:4]}")
    assert pm == hb
    return hb


@pytest.mark.parametrize("app", ["sor", "fft", "tsp", "water"])
def test_online_matches_oracles(app):
    oracle_keys(app, SMALL_PARAMS[app], nprocs=4)


@pytest.mark.slow
@pytest.mark.parametrize("app,params,races", [
    ("water", WaterParams(nmol=128, steps=3), 252),
    ("sor", SOR_PAPER_PARAMS, 0),
    ("fft", FFT_PAPER_PARAMS, 0),
    ("lu", LU_PAPER_PARAMS, 0),
])
def test_online_matches_oracles_above_default_scale(app, params, races):
    """Past the default parameters: Water at 128 molecules (a 125 k-event
    trace), and SOR (512x512), FFT (64x64x16, a 136 k-event trace) and LU
    (128x128) at the paper's inputs."""
    assert len(oracle_keys(app, params, nprocs=8)) == races


def test_online_saves_the_postmortem_log():
    """The paper's efficiency claim vs Adve et al.: the online system
    writes no trace log at all; the post-mortem system's log grows with
    every shared access."""
    spec = APPLICATIONS["water"]
    cfg = spec.config(nprocs=4, track_access_trace=True)
    system = CVM(cfg)
    result = system.run(spec.func, SMALL_PARAMS["water"])
    log_bytes = PostMortemAnalyzer.log_bytes(result.access_trace)
    # The log dwarfs what the online system adds to the wire.
    online_overhead_bytes = (result.traffic.read_notice_bytes
                             + result.traffic.bitmap_round_bytes)
    assert log_bytes > online_overhead_bytes
