"""Traffic statistics and the Table 3 message-overhead fraction."""

from repro.dsm.cvm import int_fields
from repro.net.stats import TrafficStats


def test_record_and_totals():
    s = TrafficStats()
    s.record("x", 0, 1, 100)
    s.record("x", 1, 0, 50)
    s.record("y", 0, 2, 25)
    assert s.total_messages == 3
    assert s.total_bytes == 175
    assert s.bytes_by_tag["x"] == 150


def test_overhead_fraction_zero_without_traffic():
    assert TrafficStats().message_overhead_fraction() == 0.0


def test_overhead_fraction_combines_notices_and_bitmap_round():
    s = TrafficStats()
    s.record("sync", 0, 1, 800)
    s.record("bitmap_reply", 1, 0, 200)
    s.read_notice_bytes += 100
    s.bitmap_round_bytes += 200
    assert s.message_overhead_fraction() == (100 + 200) / 1000


def test_summary_keys():
    s = TrafficStats()
    s.record("t", 0, 1, 10)
    s.read_notice_bytes += 3
    # The int fields are what a run's metrics carry (``net.transport.*``
    # and ``net.reliable.*``), beside the two totals.
    assert int_fields(s) == {
        "read_notice_bytes": 3, "bitmap_round_bytes": 0, "digest_bytes": 0,
        "drops": 0, "retransmits": 0, "duplicates": 0, "reorders": 0,
        "acks": 0, "retry_failures": 0}
    assert (s.total_messages, s.total_bytes) == (1, 10)
