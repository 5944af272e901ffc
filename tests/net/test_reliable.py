"""The reliable channel: fragmentation, retransmit charging, degradation."""

import pytest

from repro.dsm.cvm import int_fields
from repro.errors import MessageTooLargeError, RetryExhaustedError
from repro.net.faults import FaultPlan, FaultRates
from repro.net.message import HEADER_BYTES
from repro.net.reliable import ACK_BODY_BYTES, ReliableChannel
from repro.net.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel


def make_channel(plan=None, max_datagram=64 * 1024, **kw):
    transport = Transport(CostModel(), max_datagram=max_datagram)
    plan = plan or FaultPlan.uniform(loss_rate=0.1, seed=0)
    return ReliableChannel(transport, plan, **kw)


def test_fault_free_send_costs_message_plus_ack():
    ch = make_channel(FaultPlan(by_tag={"never": FaultRates(drop=0.5)}))
    clock = VirtualClock()
    msg = ch.send("ping", 0, 1, {"x": 1}, body_bytes=100, src_clock=clock)
    cm = ch.cost_model
    expected = (cm.msg_latency + cm.cycles_per_byte * (100 + HEADER_BYTES)
                + cm.msg_latency
                + cm.cycles_per_byte * (ACK_BODY_BYTES + HEADER_BYTES))
    assert clock.now == pytest.approx(expected)
    assert msg.payload == {"x": 1}
    assert msg.nbytes == 100 + HEADER_BYTES
    assert ch.stats.acks == 1
    assert ch.stats.retransmits == 0
    # The data datagram is charged to its own category; only the ack
    # lands under RETRANSMIT.
    assert clock.ledger.totals[CostCategory.RETRANSMIT] == pytest.approx(
        cm.msg_latency + cm.cycles_per_byte * (ACK_BODY_BYTES + HEADER_BYTES))


def test_drops_charge_retransmit_category_and_counters():
    ch = make_channel(FaultPlan.uniform(loss_rate=0.4, seed=1),
                      retry_budget=50)
    clock = VirtualClock()
    for seq in range(30):
        ch.send("sync", 0, 1, None, 64, clock)
    stats = ch.stats
    assert stats.drops > 0
    assert stats.retransmits == stats.drops  # every drop was retried
    assert clock.ledger.totals[CostCategory.RETRANSMIT] > 0
    # Base category only carries the first attempts.
    cm = ch.cost_model
    first_attempt = cm.msg_latency + cm.cycles_per_byte * (64 + HEADER_BYTES)
    assert clock.ledger.totals[CostCategory.BASE] == pytest.approx(
        30 * first_attempt)


def test_retry_budget_exhaustion_raises():
    ch = make_channel(FaultPlan.uniform(loss_rate=0.999999, seed=2),
                      retry_budget=3)
    clock = VirtualClock()
    with pytest.raises(RetryExhaustedError) as exc:
        ch.send("doomed", 0, 1, None, 10, clock)
    assert exc.value.tag == "doomed"
    assert exc.value.attempts == 3
    assert ch.stats.retry_failures == 1


def test_backoff_is_exponential_and_capped():
    ch = make_channel(FaultPlan.uniform(loss_rate=0.999999, seed=2),
                      retry_budget=6, timeout_cycles=1000,
                      max_timeout_cycles=4000)
    clock = VirtualClock()
    with pytest.raises(RetryExhaustedError):
        ch.send("doomed", 0, 1, None, 10, clock)
    cm = ch.cost_model
    wire = cm.msg_latency + cm.cycles_per_byte * (10 + HEADER_BYTES)
    # 5 timeouts: 1000, 2000, 4000 (cap), 4000, 4000; 6 transmissions.
    assert clock.now == pytest.approx(6 * wire + 1000 + 2000 + 3 * 4000)


def test_duplicates_counted_and_suppressed():
    ch = make_channel(FaultPlan.uniform(duplicate_rate=0.5, seed=3))
    clock = VirtualClock()
    for _ in range(40):
        ch.send("sync", 0, 1, None, 16, clock)
    assert ch.stats.duplicates > 0
    assert ch.stats.drops == 0


def test_reorder_delays_arrival():
    loud = make_channel(FaultPlan.uniform(reorder_rate=0.999, seed=4))
    quiet = make_channel(FaultPlan(by_tag={"x": FaultRates(drop=0.1)}))
    c1, c2 = VirtualClock(), VirtualClock()
    late = loud.send("sync", 0, 1, None, 16, c1)
    on_time = quiet.send("sync", 0, 1, None, 16, c2)
    assert loud.stats.reorders > 0
    assert late.arrival_time > on_time.arrival_time


def test_fragmentation_one_header_per_fragment():
    ch = make_channel(FaultPlan(by_tag={"never": FaultRates(drop=0.5)}),
                      max_datagram=256)
    clock = VirtualClock()
    msg = ch.send("big", 0, 1, None, body_bytes=1000, src_clock=clock,
                  fragmentable=True)
    capacity = 256 - HEADER_BYTES
    nfrag = -(-1000 // capacity)
    assert msg.nfragments == nfrag
    assert msg.nbytes == 1000 + nfrag * HEADER_BYTES
    assert ch.stats.messages_by_tag["big"] == nfrag


def test_oversize_unfragmentable_still_raises():
    ch = make_channel(max_datagram=128)
    with pytest.raises(MessageTooLargeError):
        ch.send("big", 0, 1, None, body_bytes=1000,
                src_clock=VirtualClock())


def test_channel_seqnos_are_per_direction():
    ch = make_channel()
    clock = VirtualClock()
    a = ch.send("t", 0, 1, None, 8, clock)
    b = ch.send("t", 0, 1, None, 8, clock)
    c = ch.send("t", 1, 0, None, 8, clock)
    assert (a.seqno, b.seqno, c.seqno) == (0, 1, 0)


def test_channel_send_is_deterministic():
    def run():
        ch = make_channel(FaultPlan.uniform(loss_rate=0.3, duplicate_rate=0.1,
                                            reorder_rate=0.1, seed=11),
                          retry_budget=50)
        clock = VirtualClock()
        arrivals = [ch.send("sync", 0, 1, None, 32, clock).arrival_time
                    for _ in range(25)]
        return arrivals, int_fields(ch.stats), clock.now

    assert run() == run()
