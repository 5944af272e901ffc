"""A timing-free work budget for the race-report path.

On the spine's ``hashtab@16`` cell (the ``irregular_scalar`` workload's
largest report producer) step 5 — ``RaceDetector._word_candidates``, one
call per interval of a clean epoch's rows or per check entry —
builds what is the same for every word of a bitmap comparison once per
comparison: exactly two ``IntervalRef`` per comparison with a non-empty
intersection, where the per-bit builder made two per report.  Its
Python-level calls (``sys.setprofile`` ``call`` events: the symbol
lookup, the refs, the call's one clock advance) stay within a per-report
ceiling, and under ``--master-failover`` the coordinator journal, appended
after every detection pass, encodes each report once over the whole run.
The ceilings fail at the per-bit builder (two refs per report, 7.14 calls
per report; 2.46 now, 2.53 with one call per check entry) and at a
journal that re-encodes the detector state at every write (174,150
report encodings for 4,698 reports).
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
    """The spine's ``hashtab@16`` cell."""
    spec = get_app("hashtab")
    cfg = spec.config(nprocs=16, policy="random", seed=0, **overrides)
    system = CVM(cfg)
    return system.run(spec.func,
                      HashTabParams(nb=8, keys_per_pid=6, rounds=3))


@pytest.fixture
def step5_work(monkeypatch):
    """Per ``_word_candidates`` call: (calls made inside it, IntervalRefs
    built, non-empty comparisons, reports)."""
    work = []
    production = RaceDetector._word_candidates
    ref_init = IntervalRef.__init__.__code__

    def profiled(self, a, rows, partners, epoch, clock):
        calls = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)

        sys.setprofile(profiler)
        try:
            comparisons, by_partner = production(self, a, rows, partners,
                                                 epoch, clock)
        finally:
            sys.setprofile(None)
        found = [r for reports in by_partner.values() for r in reports]
        # One comparison per (partner, page, access-kind combination).
        nonempty = {(r.b.pid, r.b.index, r.page, r.a.access, r.b.access)
                    for r in found}
        # calls[0] is the production frame itself.
        work.append((len(calls) - 1, calls.count(ref_init), len(nonempty),
                     len(found)))
        return comparisons, by_partner

    monkeypatch.setattr(RaceDetector, "_word_candidates", profiled)
    return work


def test_step5_builds_two_refs_per_nonempty_comparison(step5_work):
    result = run_cell()
    calls, refs, nonempty, reports = map(sum, zip(*step5_work))
    assert reports == len(result.races) > 1000
    assert refs == 2 * nonempty
    assert nonempty < reports / 2


def test_step5_stays_within_its_call_budget(step5_work):
    run_cell()
    calls, _refs, _nonempty, reports = map(sum, zip(*step5_work))
    assert calls / reports <= CALLS_PER_REPORT, (calls, reports)


def test_failover_journal_encodes_each_report_once(monkeypatch):
    encoded = []
    report_row = detector_module._report_row

    def counted(report):
        encoded.append(report)
        return report_row(report)

    monkeypatch.setattr(detector_module, "_report_row", counted)
    result = run_cell(master_failover=True)
    reports = len(result.races) + len(result.unverifiable)
    assert result.failover_stats.state_checkpoints > 10
    assert reports > 1000
    assert len(encoded) <= reports
