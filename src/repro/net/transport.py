"""Simulated transport: latency, bandwidth, size limits, statistics.

Control flow in the simulation is synchronous (the protocol handler runs as
a direct call in the sender's thread), so the transport's job is purely to
*account* for the message: compute its wire size, enforce the maximum
datagram size, charge transmission cycles, record statistics, and compute
the receiver-side arrival time that the protocol uses to advance the
receiver's virtual clock.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import MessageTooLargeError
from repro.net.message import HEADER_BYTES, Message
from repro.net.stats import TrafficStats
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory, CostModel

#: CVM ran over UDP; its effective maximum datagram size bounds how much
#: consistency information one synchronization message can carry (§5.3).
DEFAULT_MAX_DATAGRAM = 64 * 1024


class Transport:
    """Accounting-only network between simulated processes."""

    def __init__(self, cost_model: CostModel,
                 max_datagram: int = DEFAULT_MAX_DATAGRAM,
                 stats: Optional[TrafficStats] = None):
        if max_datagram <= HEADER_BYTES:
            raise ValueError(
                f"max_datagram must exceed the {HEADER_BYTES}-byte header")
        self.cost_model = cost_model
        self.max_datagram = max_datagram
        self.stats = stats or TrafficStats()
        #: Per-transport sequence counter: seqnos are a property of *this*
        #: channel, not the process, so back-to-back runs in one
        #: interpreter (equivalence suites, benchmarks) assign identical
        #: seqnos and record/replay stays deterministic.
        self._seqno = itertools.count()
        #: Optional ``(tag, src, dst)`` callback fired once per *logical*
        #: message at the end of :meth:`send` — the two-phase pipeline's
        #: delivery-order capture point on a fault-free network.  On a
        #: lossy network the :class:`~repro.net.reliable.ReliableChannel`
        #: owns the hook instead (post-retransmit order) and leaves this
        #: one unset on its inner transport, so fragments, retransmits and
        #: acks never fire it.
        self.delivery_hook = None

    def send(self, tag: str, src: int, dst: int, payload: Any,
             body_bytes: int, src_clock: VirtualClock,
             category: CostCategory = CostCategory.BASE,
             fragmentable: bool = False) -> Message:
        """Transmit a message, charging the sender and returning it with its
        arrival time filled in.

        Args:
            tag: Protocol message type.
            src, dst: Endpoint process ids.
            payload: Protocol data carried by reference.
            body_bytes: Encoded body size (header added here).
            src_clock: Sender's virtual clock; charged the full
                transmission cost (CVM's protocols are sender-driven).
            category: Cost category the transmission is charged to.  Base
                protocol messages use BASE; e.g. the detector's bitmap
                round charges BITMAPS.
            fragmentable: If True, messages above the datagram limit are
                charged as multiple fragments instead of failing — the
                "modified communication layer" the paper says is coming
                (§5.3).  Default False: oversize messages raise
                :class:`MessageTooLargeError`, as in the paper's prototype.

        Returns:
            The :class:`Message`, with ``arrival_time`` set to the virtual
            time at which the receiver may consume it.
        """
        if HEADER_BYTES + body_bytes > self.max_datagram and not fragmentable:
            raise MessageTooLargeError(HEADER_BYTES + body_bytes,
                                       self.max_datagram, tag)

        # Every UDP fragment carries its own header, so a fragmented body
        # is split over the *usable* per-datagram capacity and the wire
        # size charges one header per fragment (a single-fragment message
        # is accounted exactly as before).
        capacity = self.max_datagram - HEADER_BYTES
        nfragments = max(1, -(-body_bytes // capacity))
        nbytes = body_bytes + HEADER_BYTES * nfragments
        cycles = (self.cost_model.cycles_per_byte * nbytes
                  + self.cost_model.msg_latency * nfragments)
        send_time = src_clock.now
        src_clock.advance(cycles, category)
        arrival = src_clock.now  # store-and-forward: arrival == send done

        msg = Message(tag=tag, src=src, dst=dst, payload=payload,
                      nbytes=nbytes, send_time=send_time,
                      arrival_time=arrival, seqno=next(self._seqno),
                      nfragments=nfragments)
        self.stats.record(tag, src, dst, nbytes, count=nfragments)
        if self.delivery_hook is not None:
            self.delivery_hook(tag, src, dst)
        return msg

    def deliver(self, msg: Message, dst_clock: VirtualClock) -> Any:
        """Advance the receiver's clock to the message arrival time and
        return the payload.  Idempotent with respect to clock time (a
        receiver already past the arrival time is unaffected)."""
        dst_clock.wait_until(msg.arrival_time)
        return msg.payload
