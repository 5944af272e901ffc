"""Adve-style post-mortem analyzer: event building and log accounting."""

import pytest

from repro.core.baseline.postmortem import PostMortemAnalyzer
from repro.core.baseline.trace import (TRACE_EVENT_BYTES, AccessTrace,
                                       TraceEvent)
from repro.dsm.vector_clock import VectorClock


def log(entries):
    return {key: VectorClock(vec) for key, vec in entries.items()}


def test_build_events_aggregates_attributes():
    pm = PostMortemAnalyzer(log({(0, 1): [1, 0]}))
    trace = AccessTrace([TraceEvent(0, 1, 3, 2, True),
                         TraceEvent(0, 1, 9, 1, False)])
    [ev] = pm.build_events(trace)
    assert ev.writes == [(3, 5)]
    assert ev.reads == [(9, 10)]


def test_build_events_joins_overlapping_touching_and_repeated_ranges():
    """One interval's writes [4, 6) and [2, 4) (twice) touch and join,
    [10, 13) swallows [11, 12), and a read between them joins neither."""
    pm = PostMortemAnalyzer(log({(0, 1): [1, 0]}))
    trace = AccessTrace([
        TraceEvent(0, 1, 4, 2, True), TraceEvent(0, 1, 2, 2, True),
        TraceEvent(0, 1, 2, 2, True), TraceEvent(0, 1, 10, 3, True),
        TraceEvent(0, 1, 11, 1, True), TraceEvent(0, 1, 6, 1, False)])
    [ev] = pm.build_events(trace)
    assert ev.writes == [(2, 6), (10, 13)]
    assert ev.reads == [(6, 7)]


def test_build_events_missing_ordering_info():
    pm = PostMortemAnalyzer({})
    with pytest.raises(KeyError):
        pm.build_events(AccessTrace([TraceEvent(0, 1, 3, 1, True)]))


def test_races_interval_granularity():
    pm = PostMortemAnalyzer(log({(0, 1): [1, 0], (1, 1): [0, 1]}))
    trace = AccessTrace([TraceEvent(0, 1, 3, 1, True),
                         TraceEvent(1, 1, 3, 1, False)])
    races = pm.races(trace)
    assert len(races) == 1
    kind, addr, _sides = next(iter(races))
    assert (kind, addr) == ("read-write", 3)


def test_log_bytes_counts_every_event():
    trace = AccessTrace([TraceEvent(0, 1, 3, 1, True)] * 10)
    assert PostMortemAnalyzer.log_bytes(trace) == 10 * TRACE_EVENT_BYTES
