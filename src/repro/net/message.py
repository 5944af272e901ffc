"""Messages and wire-size accounting.

A :class:`Message` is a tagged payload travelling between two simulated
processes.  Its size on the wire is computed by a :class:`WireSizer`, which
knows the encoded size of the protocol data structures (version vectors,
write/read notices, word bitmaps, page contents).  Sizes follow CVM's layout
conventions: 32-bit integers for ids and indices, one vector-clock entry per
process, page-sized data blocks, and one bit per word for access bitmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Encoded size of a 32-bit integer field.
INT_BYTES = 4
#: Fixed per-message header (src, dst, tag, length, seqno...).  When a
#: fragmentable message exceeds the datagram limit, *every* UDP fragment
#: carries its own copy of this header.
HEADER_BYTES = 24


@dataclass
class Message:
    """One simulated datagram.

    Attributes:
        tag: Protocol message type, e.g. ``"lock_grant"`` or
            ``"barrier_arrival"``.
        src: Sending process id.
        dst: Receiving process id.
        payload: Arbitrary protocol data (not serialized; sizes are
            accounted separately).
        nbytes: Wire size in bytes, including one header per fragment.
        send_time: Sender's virtual time at transmission.
        arrival_time: Receiver-side virtual arrival time (filled in by the
            transport).
        seqno: Per-transport sequence number, assigned by
            :meth:`~repro.net.transport.Transport.send` at send time so
            that back-to-back runs in one interpreter see identical
            seqnos (record/replay determinism).  Messages constructed
            directly default to 0.
        nfragments: How many datagrams the message occupied on the wire.
    """

    tag: str
    src: int
    dst: int
    payload: Any
    nbytes: int
    send_time: float = 0.0
    arrival_time: float = 0.0
    seqno: int = 0
    nfragments: int = 1

    def __post_init__(self) -> None:
        if self.nbytes < HEADER_BYTES:
            raise ValueError(f"message smaller than its header: {self.nbytes}")


class WireSizer:
    """Computes encoded sizes of protocol structures.

    Parameterized by the number of processes (vector-clock width) and the
    page size in words (bitmap and page-data sizes).
    """

    def __init__(self, nprocs: int, page_size_words: int):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        if page_size_words <= 0 or page_size_words % 8 != 0:
            raise ValueError("page_size_words must be a positive multiple of 8")
        self.nprocs = nprocs
        self.page_size_words = page_size_words
        # Shape-dependent sizes are constants of the configuration, so
        # they are computed once here; the per-message methods below just
        # return them.  Sizing a message is pure arithmetic on these
        # constants — no structure is ever serialized to measure it.
        self._vc_bytes = INT_BYTES * nprocs
        self._bitmap_bytes = page_size_words // 8
        self._page_data_bytes = page_size_words * 8
        # Coarse-digest granule mask, folded to <= 64 bits (see
        # repro.core.bitmap.digest_width_bits): recomputed here as pure
        # arithmetic so sizing never imports the bitmap layer.
        ngran = (page_size_words + 15) // 16
        while ngran > 64:
            ngran = (ngran + 1) // 2
        self._digest_bytes = 1 + (ngran + 7) // 8  # mode flag + granule mask
        self._bloom_bytes = 64 // 8

    # -- primitive fields ------------------------------------------------ #
    def ints(self, n: int = 1) -> int:
        """Size of ``n`` 32-bit integer fields."""
        return INT_BYTES * n

    def vector_clock(self) -> int:
        """One interval-index entry per process."""
        return self._vc_bytes

    # -- protocol structures --------------------------------------------- #
    def notice_list(self, npages: int) -> int:
        """A write- or read-notice list: a count plus one page id per entry.

        Read and write notices are the same size (paper §5.3); read notices
        cost more bandwidth only because reads outnumber writes.
        """
        return INT_BYTES * (1 + npages)

    def bitmap(self) -> int:
        """A word-granularity access bitmap for one page: one bit per word."""
        return self._bitmap_bytes

    def digest(self, with_bloom: bool) -> int:
        """One coarse access digest piggy-backed on a notice entry: a mode
        flag, the folded granule mask, and — for sparse access sets — the
        64-bit Bloom filter of the exact word offsets."""
        return self._digest_bytes + (self._bloom_bytes if with_bloom else 0)

    def page_data(self, word_bytes: int = 8) -> int:
        """Full page contents (Alpha: 8-byte words)."""
        if word_bytes == 8:
            return self._page_data_bytes
        return self.page_size_words * word_bytes

    def diff(self, nchanged_words: int, word_bytes: int = 8) -> int:
        """A run-length diff: count plus (offset, value) per changed word."""
        return INT_BYTES + nchanged_words * (INT_BYTES + word_bytes)

    def message(self, body_bytes: int) -> int:
        """Total wire size of a message with ``body_bytes`` of body."""
        return HEADER_BYTES + body_bytes
