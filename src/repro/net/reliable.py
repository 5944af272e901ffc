"""Reliable fragmenting channel over the accounting transport.

This is the "modified communication layer" the paper promised (§5.3),
modeled in the same accounting-only style as :class:`~repro.net.transport.
Transport`: payloads still travel by reference and control flow stays
synchronous, but every datagram's fate is decided by a deterministic
:class:`~repro.net.faults.FaultInjector`, and the channel charges the
sender's virtual clock for everything reliability costs on a lossy
network — retransmissions after timeouts (capped exponential backoff),
per-fragment headers, and acknowledgements — under
``CostCategory.RETRANSMIT`` so the robustness overhead is separable from
the paper's Figure 3 categories.

Semantics:

* Messages are split into fragments that fit the datagram limit, each
  carrying its own header (fragment seqnos identify retransmitted and
  duplicated copies; the receiver suppresses duplicates by seqno).
* A dropped fragment costs the sender a timeout — doubling each retry up
  to a cap — and a retransmission.  After ``retry_budget`` total attempts
  the channel raises :class:`~repro.errors.RetryExhaustedError`; callers
  either propagate (a sync message that cannot be delivered is fatal) or
  degrade (the detector falls back to page-granularity reporting).
* Duplicated fragments are delivered then discarded (counted, no clock
  charge: the copy is the network's work, not the sender's).
* Reordered fragments arrive late by ``reorder_delay_cycles``; the
  message's arrival time is the latest fragment arrival, so reordering
  simply delays the receiver.

A channel is only placed in the send path when faults are configured
(:attr:`DsmConfig.faults_enabled`); with faults disabled, CVM keeps using
the bare transport and every ledger stays byte-identical to a build
without this module.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import MessageTooLargeError, RetryExhaustedError
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.message import HEADER_BYTES, Message
from repro.net.stats import TrafficStats
from repro.net.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory

#: Encoded ack body: acked channel seqno, fragment count, receive window.
ACK_BODY_BYTES = 12

#: Default first-retry timeout.  Roughly two one-way latencies of the
#: default cost model (9k cycles each): the sender waits a round trip
#: before concluding the fragment or its ack was lost.
DEFAULT_TIMEOUT_CYCLES = 18_000.0

#: Backoff cap: retries never wait longer than this.
DEFAULT_MAX_TIMEOUT_CYCLES = 144_000.0

#: Default total attempts per fragment (first send + 7 retries).
DEFAULT_RETRY_BUDGET = 8


class ReliableChannel:
    """Drop-in ``Transport`` replacement adding loss tolerance.

    Exposes the same ``send``/``deliver``/``stats`` surface as
    :class:`Transport`, so the DSM layer and the detector can hold either
    without caring which.
    """

    def __init__(self, transport: Transport, plan: FaultPlan,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 timeout_cycles: float = DEFAULT_TIMEOUT_CYCLES,
                 max_timeout_cycles: float = DEFAULT_MAX_TIMEOUT_CYCLES):
        if retry_budget < 1:
            raise ValueError("retry_budget must be at least 1 attempt")
        if timeout_cycles <= 0:
            raise ValueError("timeout_cycles must be positive")
        self.transport = transport
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.retry_budget = retry_budget
        self.timeout_cycles = timeout_cycles
        self.max_timeout_cycles = max(timeout_cycles, max_timeout_cycles)
        #: Per-(src, dst) channel sequence numbers; retransmits and
        #: network duplicates of a fragment reuse its seqno, which is how
        #: the receiver recognizes and suppresses the extra copies.
        self._next_seq: Dict[Tuple[int, int], int] = {}
        #: Memoized fragmentation plans keyed by body size.  Traffic is
        #: dominated by a handful of fixed shapes (page replies, barrier
        #: arrivals, acks), so each plan is computed once per channel —
        #: retransmitted and repeated messages reuse the tuple instead of
        #: re-deriving it.
        self._frag_cache: Dict[int, Tuple[int, ...]] = {}
        #: Optional ``(tag, src, dst)`` callback fired once per *logical*
        #: message at the end of :meth:`send`, after every fragment —
        #: retransmissions included — has been delivered.  This is the
        #: two-phase pipeline's delivery-order capture point on a lossy
        #: network: the trace records what was actually delivered, not
        #: what was first attempted.  The inner transport's own hook is
        #: left unset, so per-fragment sends, retransmits and acks never
        #: fire it.
        self.delivery_hook = None

    # -- Transport surface ------------------------------------------------ #
    @property
    def stats(self) -> TrafficStats:
        return self.transport.stats

    @property
    def cost_model(self):
        return self.transport.cost_model

    @property
    def max_datagram(self) -> int:
        return self.transport.max_datagram

    def deliver(self, msg: Message, dst_clock: VirtualClock) -> Any:
        return self.transport.deliver(msg, dst_clock)

    # -- sending ---------------------------------------------------------- #
    def _channel_seqno(self, src: int, dst: int) -> int:
        key = (src, dst)
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        return seq

    def _fragment_sizes(self, body_bytes: int) -> Tuple[int, ...]:
        cached = self._frag_cache.get(body_bytes)
        if cached is not None:
            return cached
        capacity = self.max_datagram - HEADER_BYTES
        sizes = []
        remaining = body_bytes
        while remaining > capacity:
            sizes.append(capacity)
            remaining -= capacity
        sizes.append(remaining)  # possibly 0 for an empty body
        plan = tuple(sizes)
        self._frag_cache[body_bytes] = plan
        return plan

    def send(self, tag: str, src: int, dst: int, payload: Any,
             body_bytes: int, src_clock: VirtualClock,
             category: CostCategory = CostCategory.BASE,
             fragmentable: bool = False) -> Message:
        """Reliably transmit a message, fragment by fragment.

        Same contract as :meth:`Transport.send`, plus loss tolerance: the
        returned message's ``arrival_time`` is the virtual time by which
        every fragment has reached the receiver (including retransmission
        and reordering delays).  Raises :class:`RetryExhaustedError` if
        any fragment's retry budget runs out.
        """
        if HEADER_BYTES + body_bytes > self.max_datagram and not fragmentable:
            raise MessageTooLargeError(HEADER_BYTES + body_bytes,
                                       self.max_datagram, tag)
        stats = self.stats
        seq = self._channel_seqno(src, dst)
        send_time = src_clock.now
        arrival = src_clock.now
        total_bytes = 0
        nfragments = 0
        for frag_idx, frag_body in enumerate(self._fragment_sizes(body_bytes)):
            nfragments += 1
            frag_arrival = self._send_fragment(
                tag, src, dst, frag_body, src_clock, category, seq, frag_idx)
            total_bytes += frag_body + HEADER_BYTES
            arrival = max(arrival, frag_arrival)
        # Cumulative ack for the whole message.  The sender is the one
        # waiting on it, so its wire time lands on the sender's clock,
        # under RETRANSMIT with everything else reliability costs.  The
        # *message* arrival stays the data arrival — the receiver has the
        # payload before it acks.
        self.transport.send("ack", dst, src, None, ACK_BODY_BYTES,
                            src_clock, category=CostCategory.RETRANSMIT)
        stats.acks += 1
        if self.delivery_hook is not None:
            self.delivery_hook(tag, src, dst)
        return Message(tag=tag, src=src, dst=dst, payload=payload,
                       nbytes=total_bytes, send_time=send_time,
                       arrival_time=arrival, seqno=seq,
                       nfragments=nfragments)

    def _send_fragment(self, tag: str, src: int, dst: int, frag_body: int,
                       src_clock: VirtualClock, category: CostCategory,
                       seq: int, frag_idx: int) -> float:
        """Send one fragment until it gets through; returns its arrival
        time on the receiver's timeline."""
        stats = self.stats
        attempt = 0
        while True:
            attempt += 1
            fate = self.injector.decide(tag, src, dst, seq, frag_idx, attempt)
            cat = category if attempt == 1 else CostCategory.RETRANSMIT
            msg = self.transport.send(tag, src, dst, None, frag_body,
                                      src_clock, category=cat)
            if attempt > 1:
                stats.retransmits += 1
            if fate.drop:
                stats.drops += 1
                if attempt >= self.retry_budget:
                    stats.retry_failures += 1
                    raise RetryExhaustedError(tag, src, dst, seq, frag_idx,
                                              attempt)
                timeout = min(self.timeout_cycles * 2.0 ** (attempt - 1),
                              self.max_timeout_cycles)
                src_clock.advance(timeout, CostCategory.RETRANSMIT)
                continue
            if fate.duplicate:
                # The network delivered a second copy; the receiver
                # recognizes the (seq, fragment) pair and discards it.
                stats.duplicates += 1
            if fate.reorder:
                stats.reorders += 1
                return msg.arrival_time + self.plan.reorder_delay_cycles
            return msg.arrival_time
