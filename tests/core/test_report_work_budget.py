"""A timing-free work and memory budget for the race-report path.

On the spine's ``hashtab@16`` cell (the ``irregular_scalar`` workload's
largest report producer) step 5 — ``RaceDetector._word_candidates``, one
call per interval of a clean epoch's rows or per check entry — builds
at most one ``IntervalRef`` per ``(pid, index, access)`` of the calling
slice, from the ref cache ``_compute`` hands every call, where the
per-bit builder made two per report and a per-comparison builder two
per comparison with a non-empty intersection.  Its Python-level calls
(``sys.setprofile`` ``call`` events: the symbol lookup, the refs, the
call's one clock advance) stay within a per-report ceiling, and under
``--master-failover`` the coordinator journal, appended after every
detection pass, encodes each report once over the whole run.  The
ceilings fail at the per-bit builder (two refs per report, 7.14 calls
per report; 1.03 now) and at a journal that re-encodes the detector state at
every write (174,150 report encodings for 4,698 reports).

A finished run keeps one tuple per reported word and nothing else per
word: the reports of one address share one symbol string, and the dedup
state holds one mask per comparison group, not one key per word.  These
are counted on the objects, not measured with ``tracemalloc``.
"""

import sys

import pytest

from repro.apps.hashtab import HashTabParams
from repro.apps.registry import get_app
from repro.core import detector as detector_module
from repro.core.detector import RaceDetector
from repro.core.report import IntervalRef
from repro.dsm.cvm import CVM

#: Python-level calls step 5 may make per reported race.
CALLS_PER_REPORT = 4.0


def run_cell(**overrides):
    """The spine's ``hashtab@16`` cell: the system and its result."""
    spec = get_app("hashtab")
    cfg = spec.config(nprocs=16, policy="random", seed=0, **overrides)
    system = CVM(cfg)
    return system, system.run(spec.func,
                              HashTabParams(nb=8, keys_per_pid=6, rounds=3))


@pytest.fixture
def step5_work(monkeypatch):
    """Per ``_word_candidates`` call: (calls made inside it, the
    ``(pid, index, access)`` of every IntervalRef it built, the slice's
    ref cache, non-empty comparisons, reports).  Holding the caches
    keeps their ids apart."""
    work = []
    production = RaceDetector._word_candidates
    ref_init = IntervalRef.__init__.__code__

    def profiled(self, a, rows, partners, epoch, clock, refs):
        calls = []
        built = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)
                if frame.f_code is ref_init:
                    args = frame.f_locals
                    built.append((args["pid"], args["index"],
                                  args["access"]))

        sys.setprofile(profiler)
        try:
            comparisons, by_partner = production(self, a, rows, partners,
                                                 epoch, clock, refs)
        finally:
            sys.setprofile(None)
        found = [r for reports in by_partner.values() for r in reports]
        # One comparison per (partner, page, access-kind combination).
        nonempty = {(r.b.pid, r.b.index, r.page, r.a.access, r.b.access)
                    for r in found}
        # calls[0] is the production frame itself.
        work.append((len(calls) - 1, built, refs, len(nonempty),
                     len(found)))
        return comparisons, by_partner

    monkeypatch.setattr(RaceDetector, "_word_candidates", profiled)
    return work


def test_step5_builds_one_ref_per_side_per_slice(step5_work):
    _system, result = run_cell()
    scopes = {}
    for _calls, built, refs, _nonempty, _reports in step5_work:
        scopes.setdefault(id(refs), (refs, []))[1].extend(built)
    for refs, built in scopes.values():
        assert len(built) == len(set(built))
        assert set(built) == set(refs)
    built = sum(len(built) for _refs, built in scopes.values())
    _calls, _built, _refs, nonempty, reports = zip(*step5_work)
    assert sum(reports) == len(result.races) > 1000
    assert built < sum(nonempty) < sum(reports) / 2


def test_step5_stays_within_its_call_budget(step5_work):
    run_cell()
    calls, _built, _refs, _nonempty, reports = zip(*step5_work)
    assert sum(calls) / sum(reports) <= CALLS_PER_REPORT, (sum(calls),
                                                           sum(reports))


def test_a_run_keeps_one_tuple_per_reported_word():
    system, result = run_cell()
    races = result.races
    detector = system.detector
    assert len(races) > 1000 and not detector.unverifiable
    assert (len({id(r.symbol) for r in races})
            == len({r.addr for r in races}))
    assert set(detector.seen_keys()) == {r.key() for r in races}
    assert len(detector._seen_keys) < len(races) / 2


def test_failover_journal_encodes_each_report_once(monkeypatch):
    encoded = []
    report_row = detector_module._report_row

    def counted(report):
        encoded.append(report)
        return report_row(report)

    monkeypatch.setattr(detector_module, "_report_row", counted)
    _system, result = run_cell(master_failover=True)
    reports = len(result.races) + len(result.unverifiable)
    assert result.failover_stats.state_checkpoints > 10
    assert reports > 1000
    assert len(encoded) <= reports
