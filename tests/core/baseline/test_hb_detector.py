"""Unit tests for the happens-before oracle itself."""

import pytest

from repro.core.baseline.hb_detector import HappensBeforeDetector, make_race_key
from repro.core.baseline.trace import AccessTrace, TraceEvent
from repro.dsm.vector_clock import VectorClock


def vc_log(entries):
    return {key: VectorClock(vec) for key, vec in entries.items()}


def test_concurrent_write_write_found():
    log = vc_log({(0, 1): [1, 0], (1, 1): [0, 1]})
    trace = AccessTrace([TraceEvent(0, 1, addr=5, count=1, is_write=True),
                         TraceEvent(1, 1, addr=5, count=1, is_write=True)])
    races = HappensBeforeDetector(log).races(trace)
    assert races == {make_race_key("write-write", 5,
                                   (0, 1, "write"), (1, 1, "write"))}


def test_ordered_accesses_not_raced():
    log = vc_log({(0, 1): [1, 0], (1, 2): [1, 2]})  # (1,2) saw (0,1)
    trace = AccessTrace([TraceEvent(0, 1, 5, 1, True),
                         TraceEvent(1, 2, 5, 1, True)])
    assert HappensBeforeDetector(log).races(trace) == set()


def test_read_read_not_raced():
    log = vc_log({(0, 1): [1, 0], (1, 1): [0, 1]})
    trace = AccessTrace([TraceEvent(0, 1, 5, 1, False),
                         TraceEvent(1, 1, 5, 1, False)])
    assert HappensBeforeDetector(log).races(trace) == set()


def test_same_process_not_raced():
    log = vc_log({(0, 1): [1, 0], (0, 2): [2, 0]})
    trace = AccessTrace([TraceEvent(0, 1, 5, 1, True),
                         TraceEvent(0, 2, 5, 1, True)])
    assert HappensBeforeDetector(log).races(trace) == set()


def test_range_events_expand_to_words():
    log = vc_log({(0, 1): [1, 0], (1, 1): [0, 1]})
    trace = AccessTrace([TraceEvent(0, 1, addr=4, count=4, is_write=True),
                         TraceEvent(1, 1, addr=6, count=1, is_write=False)])
    races = HappensBeforeDetector(log).races(trace)
    assert {addr for _k, addr, _s in races} == {6}
    det = HappensBeforeDetector(log)
    assert det.racy_words(trace) == {6}


def test_duplicate_accesses_deduplicated():
    log = vc_log({(0, 1): [1, 0], (1, 1): [0, 1]})
    trace = AccessTrace([TraceEvent(0, 1, 5, 1, True)] * 3
                        + [TraceEvent(1, 1, 5, 1, True)])
    assert len(HappensBeforeDetector(log).races(trace)) == 1


def test_missing_vc_raises():
    det = HappensBeforeDetector({})
    trace = AccessTrace([TraceEvent(0, 1, 5, 1, True),
                         TraceEvent(1, 1, 5, 1, True)])
    with pytest.raises(KeyError):
        det.races(trace)
