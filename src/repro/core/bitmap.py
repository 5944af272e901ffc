"""Word-granularity access bitmaps and their coarse granule digests.

The instrumentation sets one bit per page word accessed (paper §4: "sets a
bit in a per-page bitmap").  Bitmap comparison — the operation that
distinguishes false sharing from a true data race — is a constant-time
bitwise AND over the page's bits.  We keep a page's bits as one Python
arbitrary-precision integer (bit ``i`` is word ``i``), so setting a range
and intersecting two bitmaps are single integer operations; bytes exist
only where a bitmap leaves the process (:meth:`Bitmap.to_bytes`).

Each bitmap also maintains, incrementally on every mutation, a **coarse
granule mask**: one bit per :data:`GRANULE_WORDS`-word granule, set when
any word in the granule is.  The two-level detection filter ships a small
digest derived from this mask (plus a Bloom filter of the word offsets for
sparse access sets) piggy-backed on interval records, so the detector can
prove most page-overlapping interval pairs race-free without fetching the
word bitmaps at all.  The digest is conservative by construction:
``digests_disjoint(a, b)`` implies the underlying word bitmaps do not
intersect — never the other way round — so filtering on it can only skip
comparisons whose verdict is already "no race".
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

#: Words per coarse granule (the "16-word granule" of the two-level
#: filter).  Fixed: the incremental mask update in ``set``/``set_range``
#: is a shift by 4.
GRANULE_WORDS = 16
#: A shipped digest's granule mask is folded (adjacent granules OR-ed
#: pairwise) until it fits this many bits, so digest wire size is bounded
#: regardless of page size.  At the default 1024-word page this is
#: exactly one bit per 16-word granule.
DIGEST_MAX_BITS = 64
#: Width of the Bloom-style fallback digest for sparse access sets.
BLOOM_BITS = 64
#: Access sets with at most this many words also carry a Bloom digest of
#: the exact offsets.  Sparse strided accesses (one word per granule —
#: the granule mask's worst case) stay filterable through it.
BLOOM_SPARSE_MAX = 8

_BLOOM_MULT = 0x9E3779B1  # Knuth multiplicative hash constant.

#: A finalized per-(page, kind) digest: ``(granule_mask, bloom)`` where
#: ``bloom`` is None for dense access sets (granule mask only).
Digest = Tuple[int, Optional[int]]


def _coarse_of(data: bytes) -> int:
    """Recompute a coarse granule mask from raw bitmap bytes (checkpoint
    restore / ``from_bytes``).  A saturating OR-fold confines each 16-bit
    group's bits to its lowest position, then every other byte's low bit
    is the granule's occupancy."""
    v = int.from_bytes(data, "little")
    v |= v >> 8
    v |= v >> 4
    v |= v >> 2
    v |= v >> 1
    folded = v.to_bytes(len(data), "little")
    mask = 0
    for g in range((len(data) + 1) // 2):
        if folded[2 * g] & 1:
            mask |= 1 << g
    return mask


def bloom_word_mask(offset: int) -> int:
    """The two Bloom bits word ``offset`` sets (deterministic, so equal
    offsets on two sides always collide — the soundness requirement)."""
    h = (offset * _BLOOM_MULT) & 0xFFFFFFFF
    return (1 << (h >> 26)) | (1 << ((h >> 20) & 63))


def digest_width_bits(nbits: int) -> int:
    """Granule-mask width of a shipped digest for an ``nbits``-word page."""
    ngran = (nbits + GRANULE_WORDS - 1) // GRANULE_WORDS
    while ngran > DIGEST_MAX_BITS:
        ngran = (ngran + 1) // 2
    return ngran


def _fold_pairs(mask: int, ngran: int) -> int:
    """OR adjacent granule bits pairwise (halving the mask width)."""
    out = 0
    for i in range((ngran + 1) // 2):
        if mask & (3 << (2 * i)):
            out |= 1 << i
    return out


def coarse_digest(bm: Optional["Bitmap"], nbits: int) -> Digest:
    """Finalize the digest shipped for one (page, kind) access set.

    An absent bitmap is an empty access set (the detector's comparison
    convention) and digests to ``(0, 0)`` — disjoint from everything.
    """
    if bm is None:
        return (0, 0)
    gmask = bm.coarse_mask
    ngran = (nbits + GRANULE_WORDS - 1) // GRANULE_WORDS
    while ngran > DIGEST_MAX_BITS:
        gmask = _fold_pairs(gmask, ngran)
        ngran = (ngran + 1) // 2
    if bm.count() <= BLOOM_SPARSE_MAX:
        bloom = 0
        for off in bm.iter_set_bits():
            bloom |= bloom_word_mask(off)
        return (gmask, bloom)
    return (gmask, None)


def digests_disjoint(a: Digest, b: Digest) -> bool:
    """True when the digests *prove* the word bitmaps cannot intersect.

    Granule masks disjoint ⇒ no common granule ⇒ no common word.  On a
    granule collision, two sparse sets can still be separated by their
    Bloom digests: a shared word would set the same two Bloom bits on
    both sides, so disjoint Blooms also prove disjoint words.
    """
    if not (a[0] & b[0]):
        return True
    ba, bb = a[1], b[1]
    return ba is not None and bb is not None and not (ba & bb)


class Bitmap:
    """Fixed-width bitset, one bit per word of a page."""

    __slots__ = ("nbits", "_bits", "_coarse")

    def __init__(self, nbits: int):
        if nbits <= 0 or nbits % 8 != 0:
            raise ValueError("nbits must be a positive multiple of 8")
        self.nbits = nbits
        self._bits = 0
        self._coarse = 0

    # ------------------------------------------------------------------ #
    # Mutation.
    # ------------------------------------------------------------------ #
    def set(self, i: int) -> None:
        """Set bit ``i`` (word ``i`` of the page was accessed)."""
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit {i} out of range [0, {self.nbits})")
        self._bits |= 1 << i
        self._coarse |= 1 << (i >> 4)

    def set_range(self, start: int, count: int) -> None:
        """Set ``count`` consecutive bits starting at ``start``.

        Used by the range-access fast path: the bitmap is OR-ed with a
        shifted all-ones mask, so tracking a long vector access is one
        integer operation with no per-bit loop.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        end = start + count  # exclusive
        if not (0 <= start and end <= self.nbits):
            raise IndexError(f"range [{start}, {end}) out of [0, {self.nbits})")
        glo = start >> 4
        self._coarse |= ((1 << (((end - 1) >> 4) - glo + 1)) - 1) << glo
        self._bits |= ((1 << count) - 1) << start

    def clear(self) -> None:
        self._bits = 0
        self._coarse = 0

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #
    def test(self, i: int) -> bool:
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit {i} out of range [0, {self.nbits})")
        return bool(self._bits >> i & 1)

    def any(self) -> bool:
        return self._bits != 0

    def count(self) -> int:
        """Population count."""
        return self._bits.bit_count()

    def overlaps(self, other: "Bitmap") -> bool:
        """True if any bit is set in both bitmaps (constant-time in page
        size, as the paper's bitmap comparison)."""
        self._check_width(other)
        return bool(self._bits & other._bits)

    def intersection_bits(self, other: "Bitmap") -> List[int]:
        """Indices of bits set in both bitmaps — the racy word offsets."""
        self._check_width(other)
        return list(_iter_bits(self._bits & other._bits))

    def iter_set_bits(self) -> Iterator[int]:
        return _iter_bits(self._bits)

    # ------------------------------------------------------------------ #
    # Encoding / misc.
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Wire size: one bit per word."""
        return self.nbits // 8

    def to_bytes(self) -> bytes:
        """Little-endian bytes (bit ``i`` is bit ``i & 7`` of byte
        ``i >> 3``): the wire and checkpoint encoding."""
        return self._bits.to_bytes(self.nbits // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitmap":
        bm = cls(len(data) * 8)
        bm._bits = int.from_bytes(data, "little")
        bm._coarse = _coarse_of(data)
        return bm

    def copy(self) -> "Bitmap":
        bm = Bitmap(self.nbits)
        bm._bits = self._bits
        bm._coarse = self._coarse
        return bm

    def union_update(self, other: "Bitmap") -> None:
        """In-place OR (used when merging diff-derived write sets)."""
        self._check_width(other)
        self._bits |= other._bits
        self._coarse |= other._coarse

    @property
    def coarse_mask(self) -> int:
        """One bit per :data:`GRANULE_WORDS`-word granule with any word
        set — maintained incrementally by ``set``/``set_range``."""
        return self._coarse

    def _check_width(self, other: "Bitmap") -> None:
        if other.nbits != self.nbits:
            raise ValueError(
                f"bitmap width mismatch: {self.nbits} vs {other.nbits}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Bitmap) and self.nbits == other.nbits
                and self._bits == other._bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitmap(nbits={self.nbits}, set={self.count()})"


def _iter_bits(value: int) -> Iterator[int]:
    """Indices of the set bits of ``value``, ascending."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low
