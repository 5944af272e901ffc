"""The packed access trace: two machine words per event.

Every field an event carries must come back out of the words unchanged,
at the widest values the encoding admits, and a value that does not fit
is refused by name — by the encoder, by the run's set-up (a process
count or segment the words cannot hold) and by the access path itself.
None of this starts a run with many processes: the encoder and the
set-up check are called directly.
"""

import pytest

from tests.helpers import run_app, small_config

from repro.core.baseline.trace import (FIELD_BITS, AccessTrace, TraceEvent,
                                       check_capacity, fold, pack)
from repro.dsm.cvm import CVM
from repro.errors import ConfigError, ProcessFailure

SEGMENT_WORDS = 1 << 30
#: The widest pid, an interval index past 32 bits, the last word of a
#: 2**30-word segment and a range the whole segment long, both kinds.
EXTREMES = [TraceEvent(pid, index, addr, count, is_write)
            for pid in (0, (1 << 16) - 1)
            for index in (0, 1 << 32, (1 << 47) - 1)
            for addr, count in ((0, 1), (SEGMENT_WORDS - 1, SEGMENT_WORDS),
                                ((1 << 32) - 1, (1 << 32) - 1))
            for is_write in (False, True)]


def test_events_round_trip_at_the_extremes():
    trace = AccessTrace(EXTREMES)
    assert len(trace) == len(EXTREMES)
    assert list(trace) == EXTREMES
    assert all(type(event) is TraceEvent and type(event.is_write) is bool
               for event in trace)
    assert trace.words.itemsize * len(trace.words) == 16 * len(EXTREMES)


def test_fold_reads_the_extremes_back():
    folded = fold(AccessTrace(EXTREMES))
    assert len(folded) == 2 * 3
    for (pid, index), sides in folded.items():
        for is_write, ranges in zip((False, True), sides):
            expected = sorted((e.addr, e.addr + e.count) for e in EXTREMES
                              if (e.pid, e.interval_index, e.is_write)
                              == (pid, index, is_write))
            assert ranges == expected


@pytest.mark.parametrize("name", sorted(FIELD_BITS))
def test_a_field_that_does_not_fit_is_refused_by_name(name):
    fields = dict(pid=1, interval_index=1, addr=1, count=1, is_write=True)
    for value in (1 << FIELD_BITS[name], -1):
        with pytest.raises(ValueError, match=f"{name}={value} "):
            AccessTrace([TraceEvent(**{**fields, name: value})])
    assert pack(**{**fields, name: (1 << FIELD_BITS[name]) - 1})


def test_a_traced_run_the_words_cannot_hold_is_refused_by_name():
    check_capacity(1 << 16, (1 << 32) - 8)
    with pytest.raises(ConfigError, match="nprocs=65537"):
        check_capacity((1 << 16) + 1, 1 << 20)
    with pytest.raises(ConfigError, match="segment_words=4294967296"):
        check_capacity(8, 1 << 32)
    with pytest.raises(ConfigError, match="segment_words=4294967296"):
        CVM(small_config(track_access_trace=True, segment_words=1 << 32))
    CVM(small_config(segment_words=1 << 32))  # untraced: no limit


def test_an_interval_index_past_the_words_is_refused_by_name():
    def app(env):
        x = env.malloc(8, name="x")
        env.store(x, 1)
        env._node.vc.entries[env.pid] = 1 << 47
        env.store(x, 2)

    with pytest.raises(ProcessFailure) as failure:
        run_app(app, nprocs=1, track_access_trace=True)
    assert "interval_index=140737488355328" in str(failure.value.original)


def test_traces_compare_by_their_events():
    events = EXTREMES[:3]
    assert AccessTrace(events) == AccessTrace(events)
    assert AccessTrace(events) != AccessTrace(events[:2])
    assert AccessTrace() != []
    assert not AccessTrace()
