"""Traffic statistics.

The harness uses these counters to regenerate the paper's Table 3 "Msg
Overhead" column: the fraction of total synchronization-message bandwidth
attributable to read notices (the detector's addition) — plus general
per-tag accounting used in tests and ablations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class TrafficStats:
    """Byte and message counters, per message tag and per (src, dst) pair."""

    messages_by_tag: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_tag: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_pair: Dict[Tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int))
    #: Bytes consumed specifically by read notices (detector addition).
    read_notice_bytes: int = 0
    #: Bytes consumed by the extra bitmap-retrieval round (detector addition).
    bitmap_round_bytes: int = 0
    #: Bytes of coarse access digests piggy-backed on notice lists by the
    #: two-level detection filter (``--coarse-filter``).  Tracked apart
    #: from the message bodies — carriage is priced in cycles under
    #: ``CostCategory.COARSE_FILTER`` — and kept out of
    #: :meth:`message_overhead_fraction`, whose numerator and denominator
    #: must both count wire bytes.
    digest_bytes: int = 0
    #: Datagrams the fault layer dropped (each forces a retransmission
    #: unless the retry budget is exhausted).
    drops: int = 0
    #: Retransmitted datagrams (charged to ``CostCategory.RETRANSMIT``).
    retransmits: int = 0
    #: Network-duplicated datagrams, suppressed at the receiver by the
    #: reliable channel's per-channel sequence numbers.
    duplicates: int = 0
    #: Datagrams delivered out of order (modeled as extra arrival delay).
    reorders: int = 0
    #: Acknowledgements sent by the reliable channel.
    acks: int = 0
    #: Fragments abandoned after the retry budget ran out.
    retry_failures: int = 0

    def record(self, tag: str, src: int, dst: int, nbytes: int,
               count: int = 1) -> None:
        """Record ``count`` datagrams (fragments of one logical message)
        totalling ``nbytes`` on the wire."""
        self.messages_by_tag[tag] += count
        self.bytes_by_tag[tag] += nbytes
        self.bytes_by_pair[(src, dst)] += nbytes

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_tag.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_tag.values())

    def message_overhead_fraction(self) -> float:
        """Fraction of all bandwidth added by the race detector (read
        notices plus the bitmap round), the quantity in Table 3's "Msg
        Ohead" column."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        return (self.read_notice_bytes + self.bitmap_round_bytes) / total
