"""Wire-size accounting."""

import pytest

from repro.net.message import HEADER_BYTES, INT_BYTES, Message, WireSizer


def test_sizer_primitives():
    s = WireSizer(nprocs=8, page_size_words=64)
    assert s.ints() == INT_BYTES
    assert s.ints(3) == 3 * INT_BYTES
    assert s.vector_clock() == 8 * INT_BYTES
    assert s.bitmap() == 64 // 8
    assert s.page_data() == 64 * 8


def test_notice_list_sizes():
    s = WireSizer(nprocs=4, page_size_words=64)
    assert s.notice_list(0) == INT_BYTES           # just the count
    assert s.notice_list(5) == 6 * INT_BYTES
    # Read and write notices are the same size per entry (paper §5.3).
    assert s.notice_list(7) - s.notice_list(6) == INT_BYTES


def test_diff_size():
    s = WireSizer(nprocs=2, page_size_words=64)
    assert s.diff(0) == INT_BYTES
    assert s.diff(4) == INT_BYTES + 4 * (INT_BYTES + 8)


def test_message_wire_size_includes_header():
    s = WireSizer(nprocs=2, page_size_words=64)
    assert s.message(100) == HEADER_BYTES + 100


def test_sizer_validation():
    with pytest.raises(ValueError):
        WireSizer(0, 64)
    with pytest.raises(ValueError):
        WireSizer(4, 60)  # not a multiple of 8


def test_message_smaller_than_header_rejected():
    with pytest.raises(ValueError):
        Message("t", 0, 1, None, nbytes=HEADER_BYTES - 1)


def test_transport_assigns_increasing_seqnos():
    # Seqnos are assigned per-transport at send() time; a directly
    # constructed Message carries the neutral default.
    from repro.net.transport import Transport
    from repro.sim.clock import VirtualClock
    from repro.sim.costmodel import CostModel
    assert Message("t", 0, 1, None, nbytes=HEADER_BYTES).seqno == 0
    t = Transport(CostModel())
    clock = VirtualClock()
    a = t.send("t", 0, 1, None, 10, clock)
    b = t.send("t", 0, 1, None, 10, clock)
    assert (a.seqno, b.seqno) == (0, 1)


def test_seqnos_are_per_transport_not_per_process():
    # Two transports in one interpreter must produce identical seqno
    # streams — back-to-back runs (equivalence suites, benchmarks) would
    # otherwise diverge and break record/replay determinism.
    from repro.net.transport import Transport
    from repro.sim.clock import VirtualClock
    from repro.sim.costmodel import CostModel

    def seqnos():
        t = Transport(CostModel())
        clock = VirtualClock()
        return [t.send("x", 0, 1, None, 10, clock).seqno for _ in range(4)]

    assert seqnos() == seqnos() == [0, 1, 2, 3]
