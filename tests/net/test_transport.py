"""Simulated transport: cost charging, size limits, statistics."""

import pytest

from repro.errors import MessageTooLargeError
from repro.net.message import HEADER_BYTES
from repro.net.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel


def make_transport(**kw):
    return Transport(CostModel(), **kw)


def test_send_charges_sender_and_sets_arrival():
    t = make_transport()
    clock = VirtualClock()
    msg = t.send("ping", 0, 1, {"x": 1}, body_bytes=100, src_clock=clock)
    expected = t.cost_model.msg_latency + \
        t.cost_model.cycles_per_byte * (100 + HEADER_BYTES)
    assert clock.now == pytest.approx(expected)
    assert msg.arrival_time == pytest.approx(clock.now)
    assert msg.nbytes == 100 + HEADER_BYTES
    assert msg.payload == {"x": 1}


def test_send_category_tagging():
    t = make_transport()
    clock = VirtualClock()
    t.send("bitmap_reply", 0, 1, None, 10, clock,
           category=CostCategory.BITMAPS)
    assert clock.ledger.totals[CostCategory.BITMAPS] > 0
    assert clock.ledger.base == 0


def test_oversize_message_raises():
    t = make_transport(max_datagram=256)
    clock = VirtualClock()
    with pytest.raises(MessageTooLargeError) as exc:
        t.send("big", 0, 1, None, body_bytes=1000, src_clock=clock)
    assert exc.value.limit == 256
    assert exc.value.tag == "big"


def test_oversize_fragmentable_charges_multiple_latencies():
    t = make_transport(max_datagram=256)
    c1, c2 = VirtualClock(), VirtualClock()
    t.send("small", 0, 1, None, body_bytes=100, src_clock=c1,
           fragmentable=True)
    t.send("big", 0, 1, None, body_bytes=1000, src_clock=c2,
           fragmentable=True)
    # Big message pays per-fragment latency: more than byte-proportional.
    per_byte = t.cost_model.cycles_per_byte
    extra_latency = c2.now - c1.now - per_byte * 900
    assert extra_latency >= t.cost_model.msg_latency * 3


def test_fragments_each_carry_their_own_header():
    # Every UDP fragment is a datagram with its own header: wire bytes,
    # cycle charges and message counts must all scale with the fragment
    # count, not assume one header per logical message.
    t = make_transport(max_datagram=256)
    clock = VirtualClock()
    capacity = 256 - HEADER_BYTES
    body = 1000
    nfrag = -(-body // capacity)  # ceil
    msg = t.send("big", 0, 1, None, body_bytes=body, src_clock=clock,
                 fragmentable=True)
    assert msg.nfragments == nfrag
    assert msg.nbytes == body + nfrag * HEADER_BYTES
    assert t.stats.messages_by_tag["big"] == nfrag
    assert t.stats.bytes_by_tag["big"] == msg.nbytes
    expected_cycles = (t.cost_model.cycles_per_byte * msg.nbytes
                       + t.cost_model.msg_latency * nfrag)
    assert clock.now == pytest.approx(expected_cycles)


def test_single_fragment_accounting_unchanged():
    # A message that fits one datagram is accounted exactly as before the
    # per-fragment-header fix: one header, one latency, one stats entry.
    t = make_transport(max_datagram=256)
    clock = VirtualClock()
    msg = t.send("fits", 0, 1, None, body_bytes=200, src_clock=clock,
                 fragmentable=True)
    assert msg.nfragments == 1
    assert msg.nbytes == 200 + HEADER_BYTES
    assert t.stats.messages_by_tag["fits"] == 1


def test_body_exactly_filling_fragments():
    t = make_transport(max_datagram=128)
    capacity = 128 - HEADER_BYTES
    clock = VirtualClock()
    msg = t.send("exact", 0, 1, None, body_bytes=3 * capacity,
                 src_clock=clock, fragmentable=True)
    assert msg.nfragments == 3
    assert msg.nbytes == 3 * 128


def test_max_datagram_must_exceed_header():
    with pytest.raises(ValueError):
        make_transport(max_datagram=HEADER_BYTES)


def test_deliver_advances_receiver_clock():
    t = make_transport()
    src, dst = VirtualClock(), VirtualClock()
    src.advance(5000)
    msg = t.send("data", 0, 1, "payload", 50, src)
    assert t.deliver(msg, dst) == "payload"
    assert dst.now == pytest.approx(msg.arrival_time)
    # A receiver already past the arrival time is unaffected.
    late = VirtualClock()
    late.advance(10 * msg.arrival_time)
    t.deliver(msg, late)
    assert late.now == 10 * msg.arrival_time


def test_stats_recorded_per_tag_and_pair():
    t = make_transport()
    clock = VirtualClock()
    t.send("a", 0, 1, None, 10, clock)
    t.send("a", 0, 1, None, 10, clock)
    t.send("b", 1, 2, None, 20, clock)
    s = t.stats
    assert s.messages_by_tag["a"] == 2
    assert s.messages_by_tag["b"] == 1
    assert s.total_messages == 3
    assert s.bytes_by_pair[(0, 1)] == 2 * (10 + HEADER_BYTES)


def test_message_tracing_disabled_by_default():
    t = make_transport()
    t.send("a", 0, 1, None, 10, VirtualClock())
    assert t.messages == []


def test_message_tracing_retains_order_and_fields():
    t = Transport(CostModel(), trace=True)
    clock = VirtualClock()
    t.send("first", 0, 1, {"k": 1}, 10, clock)
    t.send("second", 1, 0, None, 20, clock)
    assert [m.tag for m in t.messages] == ["first", "second"]
    assert t.messages[0].payload == {"k": 1}
    assert t.messages[0].arrival_time <= t.messages[1].send_time


def test_system_level_message_trace():
    from repro.dsm.config import DsmConfig
    from repro.dsm.cvm import CVM

    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        if env.pid == 0:
            env.store(x, 1)
        env.barrier()
        env.load(x)

    cfg = DsmConfig(nprocs=2, page_size_words=16, segment_words=1024)
    system = CVM(cfg)
    system.transport.trace = True
    system.run(app)
    tags = {m.tag for m in system.transport.messages}
    assert "barrier_arrival" in tags and "barrier_release" in tags
    assert "page_reply" in tags
