"""A timing-free budget for the validation path.

Checking a run should cost about what the run costs.  On default Water at
8 processes (seed 0) the trace touches 434 words that fall into 74
distinct accessor sets, and 13,617 interval pairs are ever compared: the
oracle may evaluate ``concurrent`` once per pair and analyse each set once
— the word-by-word body it replaced (``reference_hb.py``) evaluated
``concurrent`` 307,185 times.  The other half of the budget is that
tracing stays out of the untraced access path: with ``track_access_trace``
off an ``Env`` access costs the calls ``test_access_call_budget`` allows,
and with it on exactly one more, the hook tail, which builds the event
without a Python-level constructor frame.  Grouping is a sweep over the
trace's ranges, so its memory is what it returns: a range of 2**16 words
costs its word list, not a set per word.  The post-mortem analyzer reads
the same fold and merges range lists, so a long range costs it nothing
until another interval's range meets it.
"""

import sys
import tracemalloc

import pytest

from tests.dsm.test_access_call_budget import CEILING, warm_access_calls
from tests.helpers import run_app

from repro.apps.registry import get_app
from repro.core.baseline import hb_detector
from repro.core.baseline.hb_detector import HappensBeforeDetector
from repro.core.baseline.postmortem import PostMortemAnalyzer
from repro.core.baseline.trace import TraceEvent, fold
from repro.dsm.cvm import CVM
from repro.dsm.vector_clock import VectorClock

#: Ceilings on default Water@8: ``concurrent`` evaluations, accessor sets.
MAX_VERDICTS = 20_000
MAX_ACCESSOR_SETS = 100
#: What a post-mortem analysis of two intervals may hold beside its
#: ranges and keys: the event list, the two events, the pass's frames.
ANALYZER_FIXED_BYTES = 8 * 1024


def test_oracle_decides_each_pair_and_each_accessor_set_once(monkeypatch):
    spec = get_app("water")
    system = CVM(spec.config(nprocs=8, seed=0, track_access_trace=True))
    result = system.run(spec.func, spec.default_params)

    evaluated = []
    concurrent = hb_detector.concurrent

    def counting(a_pid, a_idx, a_vc, b_pid, b_idx, b_vc):
        evaluated.append(((a_pid, a_idx), (b_pid, b_idx)))
        return concurrent(a_pid, a_idx, a_vc, b_pid, b_idx, b_vc)

    monkeypatch.setattr(hb_detector, "concurrent", counting)
    detector = HappensBeforeDetector(system.store.vc_log)
    assert len(detector.races(result.access_trace)) == 252
    assert len(evaluated) == len(set(evaluated)) <= MAX_VERDICTS

    groups = detector.accessor_sets(result.access_trace)
    assert sum(len(words) for words in groups.values()) == 434
    assert len(groups) <= MAX_ACCESSOR_SETS


def test_grouping_memory_is_the_word_lists_it_returns():
    """Two long overlapping ranges and one scalar write inside both:
    98,304 words in five runs and four accessor sets, and no transient
    per-word structure beside the word lists that come back (grouping a
    set per word peaks at 8x what it returns here)."""
    span = 1 << 16
    trace = [TraceEvent(0, 1, addr=0, count=span, is_write=True),
             TraceEvent(1, 1, addr=span // 2, count=span, is_write=False),
             TraceEvent(2, 1, addr=span - span // 4, count=1, is_write=True)]
    tracemalloc.start()
    try:
        groups = HappensBeforeDetector.accessor_sets(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(groups) == 4
    held = sum(sys.getsizeof(words) + sum(map(sys.getsizeof, words))
               for words in groups.values())
    assert sum(len(words) for words in groups.values()) == span + span // 2
    assert peak <= 2 * held, (peak, held)


@pytest.mark.parametrize("overlap", [0, 3])
def test_postmortem_memory_is_the_ranges_and_the_keys(overlap):
    """Two concurrent intervals over 2**16-word ranges that meet on
    ``overlap`` words: the analysis holds their ranges and its keys, and
    expands only the words they share (a word set per interval peaks at
    12 MB here)."""
    span = 1 << 16
    log = {(0, 1): VectorClock([1, 0]), (1, 1): VectorClock([0, 1])}
    trace = [TraceEvent(0, 1, addr=0, count=span, is_write=True),
             TraceEvent(1, 1, addr=span - overlap, count=span,
                        is_write=False),
             TraceEvent(1, 1, addr=span - overlap, count=span,
                        is_write=True)]
    analyzer = PostMortemAnalyzer(log)
    tracemalloc.start()
    try:
        races = analyzer.races(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(races) == 2 * overlap  # write-write and read-write per word
    ranges = fold(trace)
    held = (sys.getsizeof(ranges) + sum(
        sys.getsizeof(sides) + sum(
            sys.getsizeof(side) + sum(map(sys.getsizeof, side))
            for side in sides)
        for sides in ranges.values()))
    held += sys.getsizeof(races) + sum(
        sys.getsizeof(key) + sys.getsizeof(key[2]) for key in races)
    assert peak <= held + ANALYZER_FIXED_BYTES, (peak, held)


@pytest.mark.parametrize("traced", [False, True])
def test_tracing_adds_one_call_and_only_when_on(traced):
    result = run_app(warm_access_calls, nprocs=1, track_access_trace=traced)
    for op, calls in result.results[0].items():
        assert len(calls) == CEILING[op] + traced, (op, calls)
        assert ("_after_access" in calls) == traced
    assert len(result.access_trace) == (6 if traced else 0)
    assert all(type(event) is TraceEvent for event in result.access_trace)
