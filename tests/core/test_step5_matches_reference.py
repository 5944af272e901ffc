"""The production step 5 against its per-bit spec.

``RaceDetector._word_candidates`` — the one step 5 of both walks, a
clean epoch's rows of partner masks and a degraded or reference-engine
epoch's check entries — builds per bitmap comparison what every word of
the comparison shares (the two interval refs, the page base), walks the
common bits without a generator, builds each report with one
``tuple.__new__`` and charges a call's comparisons in one advance;
``tests/core/reference_step5.py`` is the same step one bit and one
comparison at a time.  *Everything observable* must match: the reports
(fields, text, order), the unverifiable entries, the detector statistics,
the detector state its commits wrote, every process's virtual-time ledger, the
runtime and the traffic.

Corpora: seeded random SPMD programs, every registered application, the
spine's three ``irregular_scalar`` cells and the degraded cells — a lossy
network whose bitmap round gives up (page-granularity reports), a crash
without checkpoints (unverifiable reports) — plus sharded detection.  The
last tests break production on purpose and assert the differential
notices, and pin the tuple record against keyword construction.
"""

import inspect
import json
import textwrap

import pytest

from tests.core.reference_step5 import detector_class, reference_step5
from tests.core.test_oracle_agreement import (NWORDS, _execute,
                                              generate_program)
from tests.helpers import detector_state, small_config

from repro.apps.hashtab import HashTabParams
from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.core import detector as detector_module
from repro.core.detector import RaceDetector
from repro.core.report import RaceReport
from repro.dsm.cvm import CVM
from repro.durable import canon
from repro.net.faults import FaultPlan, FaultRates

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)


def observe(system, result):
    """Everything a caller can see of a finished run's detection."""
    return dict(
        detector_state(system.detector),
        text=[str(r) for r in result.races],
        ledgers=[dict(ledger.totals) for ledger in result.ledgers],
        runtime=result.runtime_cycles,
        traffic=result.traffic)


def run_config(cfg, func, *args):
    system = CVM(cfg)
    return observe(system, system.run(func, *args))


def app_run(app, nprocs=8, params=None, **overrides):
    spec = get_app(app)
    if app == "queue_racy":
        nprocs = 3
    cfg = spec.config(nprocs=nprocs, **overrides)
    return run_config(cfg, spec.func, params or spec.default_params)


def assert_matches_reference(run, *args, **kwargs):
    production = run(*args, **kwargs)
    with reference_step5():
        reference = run(*args, **kwargs)
    for name, value in reference.items():
        assert production[name] == value, name
    return production


# ---------------------------------------------------------------------- #
# Seeded random programs (2-8 processes, random scheduling).
# ---------------------------------------------------------------------- #
def program_run(seed, **overrides):
    nprocs = 2 + seed % 7
    program = generate_program(seed, nprocs, phases=3, ops_per_phase=6)

    def app(env):
        base = env.malloc(NWORDS, name="arena")
        env.barrier()
        for phase_ops in program[env.pid]:
            for op in phase_ops:
                _execute(env, base, op)
            env.barrier()

    cfg = small_config(nprocs=nprocs, policy="random", seed=seed,
                       **overrides)
    return run_config(cfg, app)


@pytest.mark.parametrize("chunk", range(4))
def test_random_programs_match_reference(chunk):
    races = 0
    for seed in range(chunk * 30, chunk * 30 + 30):
        races += len(assert_matches_reference(program_run, seed)["races"])
    assert races  # the corpus really reaches step 5's report builder


# ---------------------------------------------------------------------- #
# The registered applications and the spine's irregular_scalar cells.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("app", ALL_APPS)
def test_app_matches_reference(app):
    assert_matches_reference(app_run, app)


@pytest.mark.parametrize("app, params", [
    ("hashtab", HashTabParams(nb=8, keys_per_pid=6, rounds=3)),
    ("bfs", None),
    ("wsdeque", None),
], ids=["hashtab@16", "bfs@16", "wsdeque@16"])
def test_irregular_scalar_cells_match_reference(app, params):
    seen = assert_matches_reference(app_run, app, nprocs=16, params=params,
                                    policy="random", seed=0)
    assert len(seen["races"]) > 50


# ---------------------------------------------------------------------- #
# Degraded and distributed detection.
# ---------------------------------------------------------------------- #
def test_failed_bitmap_round_matches_reference():
    # Half the bitmap replies dropped with a tiny retry budget: some
    # owners' exchanges give up, so word and page reports mix.
    plan = FaultPlan(by_tag={"bitmap_reply": FaultRates(drop=0.5)}, seed=1)
    seen = assert_matches_reference(app_run, "hashtab", fault_plan=plan,
                                    retry_budget=2)
    assert seen["stats"]["page_granularity_reports"] > 0
    assert any(r.granularity == "word" for r in seen["races"])


def test_crash_without_checkpoint_matches_reference():
    seen = assert_matches_reference(app_run, "water", nprocs=4,
                                    crash_rate=0.01, crash_seed=7)
    assert seen["unverifiable"]
    assert seen["races"]


@pytest.mark.parametrize("app", ["hashtab", "water"])
def test_sharded_detection_matches_reference(app):
    seen = assert_matches_reference(app_run, app, sharded_detection=True)
    assert seen["races"]


# ---------------------------------------------------------------------- #
# Broken production must be noticed.
# ---------------------------------------------------------------------- #
def mutant(old: str, new: str) -> type:
    """``RaceDetector`` with one edit to the production step 5."""
    source = textwrap.dedent(inspect.getsource(RaceDetector._word_candidates))
    assert source.count(old) == 1, old
    namespace = dict(vars(detector_module))
    exec(source.replace(old, new), namespace)
    return type("Mutant", (RaceDetector,),
                {"_word_candidates": namespace["_word_candidates"]})


MUTANTS = {
    "page-offset-swapped": ("page, bit, epoch", "bit, page, epoch"),
    "one-side-twice": ("ref_a, ref_b,", "ref_a, ref_a,"),
    "entry-charged-once": ("* comparisons, CostCategory",
                           "* 1, CostCategory"),
    "partner-shifted": ("b = partners[x]", "b = partners[x - 1]"),
    "combination-dropped": ("row[1:], ACCESS_COMBINATIONS",
                            "row[1:3], ACCESS_COMBINATIONS"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_broken_step5_is_caught(name):
    with detector_class(mutant(*MUTANTS[name])):
        broken = app_run("hashtab")
    with reference_step5():
        reference = app_run("hashtab")
    assert any(broken[key] != reference[key] for key in reference)


# ---------------------------------------------------------------------- #
# The record itself.
# ---------------------------------------------------------------------- #
def test_step5_reports_round_trip_and_hash_like_keyword_reports():
    spec = get_app("hashtab")
    system = CVM(spec.config(nprocs=8))
    races = system.run(spec.func, spec.default_params).races
    assert races
    for report in races:
        keyword = RaceReport(**report._asdict())
        assert type(report) is RaceReport
        assert report == keyword and hash(report) == hash(keyword)
        assert report == tuple(keyword)  # a tuple of its fields
        row = json.loads(canon(detector_module._report_row(report)))
        assert detector_module._report_from_row(row) == report
        assert report.key() == keyword.key()
        assert str(report) == str(keyword)
