"""Word-granularity bitmaps, validated against a Python-set reference."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitmap import (BLOOM_SPARSE_MAX, DIGEST_MAX_BITS,
                               GRANULE_WORDS, Bitmap, bloom_word_mask,
                               coarse_digest)

WIDTH = 64
indices = st.integers(min_value=0, max_value=WIDTH - 1)
index_sets = st.sets(indices, max_size=WIDTH)


def from_set(bits):
    bm = Bitmap(WIDTH)
    for i in bits:
        bm.set(i)
    return bm


def test_set_test_basic():
    bm = Bitmap(16)
    bm.set(0)
    bm.set(15)
    assert bm.test(0) and bm.test(15)
    assert not bm.test(7)
    assert bm.count() == 2
    assert bm.any()


def test_width_validation():
    with pytest.raises(ValueError):
        Bitmap(0)
    with pytest.raises(ValueError):
        Bitmap(12)  # not multiple of 8


def test_index_bounds():
    bm = Bitmap(8)
    with pytest.raises(IndexError):
        bm.set(8)
    with pytest.raises(IndexError):
        bm.test(-1)


def test_set_range_spanning_bytes():
    bm = Bitmap(32)
    bm.set_range(5, 20)
    assert all(bm.test(i) == (5 <= i < 25) for i in range(32))


def test_set_range_within_one_byte():
    # Range entirely inside one byte: first_full > last_full path.
    bm = Bitmap(32)
    bm.set_range(9, 3)  # bits 9-11, all in byte 1
    assert all(bm.test(i) == (9 <= i < 12) for i in range(32))
    assert bm.count() == 3


def test_set_range_ending_exactly_on_byte_boundary():
    # End == multiple of 8: no trailing partial byte may be touched.
    bm = Bitmap(32)
    bm.set_range(3, 13)  # bits 3-15, ends exactly at bit 16
    assert all(bm.test(i) == (3 <= i < 16) for i in range(32))
    # And starting exactly on a boundary too: pure whole-byte fill.
    bm2 = Bitmap(32)
    bm2.set_range(8, 16)
    assert all(bm2.test(i) == (8 <= i < 24) for i in range(32))


def test_set_range_full_page():
    bm = Bitmap(64)
    bm.set_range(0, 64)
    assert bm.count() == 64
    assert all(bm.test(i) for i in range(64))


def test_set_range_single_bit_at_byte_edges():
    for start in (0, 7, 8, 15, 31):
        bm = Bitmap(32)
        bm.set_range(start, 1)
        assert bm.count() == 1 and bm.test(start)


def test_set_range_bounds_and_degenerate():
    bm = Bitmap(16)
    bm.set_range(5, 0)  # no-op
    assert not bm.any()
    with pytest.raises(IndexError):
        bm.set_range(10, 7)  # runs past the end
    with pytest.raises(ValueError):
        bm.set_range(0, -1)


def test_set_range_within_single_byte():
    bm = Bitmap(16)
    bm.set_range(1, 3)
    assert [i for i in range(16) if bm.test(i)] == [1, 2, 3]


def test_set_range_empty_and_bounds():
    bm = Bitmap(16)
    bm.set_range(3, 0)
    assert not bm.any()
    with pytest.raises(IndexError):
        bm.set_range(10, 7)
    with pytest.raises(ValueError):
        bm.set_range(0, -1)


def test_overlaps_and_intersection():
    a = from_set({1, 5, 9})
    b = from_set({5, 9, 20})
    assert a.overlaps(b)
    assert a.intersection_bits(b) == [5, 9]
    c = from_set({0, 2})
    assert not a.overlaps(c)
    assert a.intersection_bits(c) == []


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        Bitmap(8).overlaps(Bitmap(16))


def test_bytes_roundtrip_and_copy():
    a = from_set({0, 13, 63})
    b = Bitmap.from_bytes(a.to_bytes())
    assert a == b
    c = a.copy()
    c.set(1)
    assert not a.test(1)


def test_union_update():
    a = from_set({1, 2})
    a.union_update(from_set({2, 3}))
    assert sorted(a.iter_set_bits()) == [1, 2, 3]


def test_clear():
    a = from_set({1, 2, 3})
    a.clear()
    assert not a.any() and a.count() == 0


def test_nbytes():
    assert Bitmap(64).nbytes == 8


@given(index_sets)
def test_count_matches_reference(bits):
    assert from_set(bits).count() == len(bits)
    assert sorted(from_set(bits).iter_set_bits()) == sorted(bits)


@given(index_sets, index_sets)
def test_intersection_matches_reference(xs, ys):
    a, b = from_set(xs), from_set(ys)
    assert a.overlaps(b) == bool(xs & ys)
    assert a.intersection_bits(b) == sorted(xs & ys)


@given(indices, st.integers(min_value=0, max_value=WIDTH))
def test_set_range_matches_reference(start, count):
    count = min(count, WIDTH - start)
    bm = Bitmap(WIDTH)
    bm.set_range(start, count)
    assert sorted(bm.iter_set_bits()) == list(range(start, start + count))


@given(index_sets, index_sets)
def test_union_matches_reference(xs, ys):
    a = from_set(xs)
    a.union_update(from_set(ys))
    assert sorted(a.iter_set_bits()) == sorted(xs | ys)

# Range fast path vs per-bit reference, on arbitrary pre-populated maps
# (the big-int mask must OR into existing bytes, never overwrite them).
range_specs = st.tuples(indices, st.integers(min_value=0, max_value=WIDTH))


def _clamp(spec):
    start, count = spec
    return start, min(count, WIDTH - start)


@given(index_sets, range_specs)
def test_set_range_on_populated_bitmap_matches_per_bit(bits, spec):
    start, count = _clamp(spec)
    fast = from_set(bits)
    ref = from_set(bits)
    fast.set_range(start, count)
    for i in range(start, start + count):
        ref.set(i)
    assert fast.to_bytes() == ref.to_bytes()
    assert sorted(fast.iter_set_bits()) == sorted(
        set(bits) | set(range(start, start + count)))


@given(st.lists(range_specs, max_size=6))
def test_overlapping_ranges_match_per_bit(specs):
    fast = Bitmap(WIDTH)
    expected = set()
    for spec in specs:
        start, count = _clamp(spec)
        fast.set_range(start, count)
        expected |= set(range(start, start + count))
    assert sorted(fast.iter_set_bits()) == sorted(expected)
    assert fast.count() == len(expected)


@given(st.lists(range_specs, max_size=4), index_sets)
def test_union_update_on_range_built_bitmaps(specs, bits):
    a = Bitmap(WIDTH)
    expected = set()
    for spec in specs:
        start, count = _clamp(spec)
        a.set_range(start, count)
        expected |= set(range(start, start + count))
    a.union_update(from_set(bits))
    assert sorted(a.iter_set_bits()) == sorted(expected | bits)


@given(range_specs)
def test_clear_on_range_built_bitmap(spec):
    start, count = _clamp(spec)
    bm = Bitmap(WIDTH)
    bm.set_range(start, count)
    bm.clear()
    assert not bm.any()
    assert bm.to_bytes() == bytes(WIDTH // 8)


@given(index_sets, range_specs)
def test_overlaps_after_range_fill(bits, spec):
    start, count = _clamp(spec)
    a = Bitmap(WIDTH)
    a.set_range(start, count)
    covered = set(range(start, start + count))
    assert a.overlaps(from_set(bits)) == bool(covered & bits)
    assert a.intersection_bits(from_set(bits)) == sorted(covered & bits)


# ---------------------------------------------------------------------- #
# Seeded model test: the int-backed Bitmap against a bytearray reference
# that stores and answers everything one bit at a time.
# ---------------------------------------------------------------------- #
class ByteModel:
    def __init__(self, nbits):
        self.nbits = nbits
        self.data = bytearray(nbits // 8)

    def set(self, i):
        self.data[i >> 3] |= 1 << (i & 7)

    def bits(self):
        return [i for i in range(self.nbits)
                if self.data[i >> 3] >> (i & 7) & 1]

    def coarse_mask(self):
        return sum(1 << g for g in {i // GRANULE_WORDS for i in self.bits()})

    def digest(self):
        """coarse_digest, spelled out: fold the granule mask pairwise to
        at most DIGEST_MAX_BITS bits; Bloom only for sparse sets."""
        granules = {i // GRANULE_WORDS for i in self.bits()}
        ngran = -(-self.nbits // GRANULE_WORDS)
        while ngran > DIGEST_MAX_BITS:
            granules = {g // 2 for g in granules}
            ngran = (ngran + 1) // 2
        gmask = sum(1 << g for g in granules)
        if len(self.bits()) > BLOOM_SPARSE_MAX:
            return (gmask, None)
        bloom = 0
        for i in self.bits():
            bloom |= bloom_word_mask(i)
        return (gmask, bloom)


def _assert_same(bm, model):
    assert bm.nbits == model.nbits and bm.nbytes == len(model.data)
    assert bm.to_bytes() == bytes(model.data)
    assert list(bm.iter_set_bits()) == model.bits()
    assert bm.count() == len(model.bits())
    assert bm.any() == bool(model.bits())
    assert bm.coarse_mask == model.coarse_mask()
    assert coarse_digest(bm, bm.nbits) == model.digest()


def _assert_rejected(bm, model, rng):
    """Every range/width check, each leaving the bitmap untouched."""
    n = bm.nbits
    for bad in (-1, n, n + rng.randrange(1, 100)):
        with pytest.raises(IndexError):
            bm.set(bad)
        with pytest.raises(IndexError):
            bm.test(bad)
    for start, count in ((-1, 2), (n - 1, 2), (n, 1), (0, n + 1)):
        with pytest.raises(IndexError):
            bm.set_range(start, count)
    with pytest.raises(ValueError):
        bm.set_range(0, -1)
    other = Bitmap(n + 8)
    for op in (bm.overlaps, bm.intersection_bits, bm.union_update):
        with pytest.raises(ValueError):
            op(other)
    _assert_same(bm, model)


@pytest.mark.parametrize("nbits", [8, 64, 1024, 2048])
@pytest.mark.parametrize("seed", range(4))
def test_int_backed_bitmap_matches_bytearray_model(nbits, seed):
    rng = random.Random(1000 * nbits + seed)
    pairs = [(Bitmap(nbits), ByteModel(nbits)) for _ in range(3)]
    for _step in range(120):
        k = rng.randrange(len(pairs))
        bm, model = pairs[k]
        other, other_model = pairs[rng.randrange(len(pairs))]
        op = rng.choice(["set", "set", "set_range", "set_range", "clear",
                         "union", "copy", "roundtrip", "query", "reject"])
        if op == "set":
            i = rng.randrange(nbits)
            bm.set(i)
            model.set(i)
            assert bm.test(i)
        elif op == "set_range":
            start = rng.randrange(nbits)
            count = rng.randrange(0, min(nbits - start, 40) + 1)
            bm.set_range(start, count)
            for i in range(start, start + count):
                model.set(i)
        elif op == "clear":
            bm.clear()
            model.data = bytearray(nbits // 8)
        elif op == "union":
            bm.union_update(other)
            for i in other_model.bits():
                model.set(i)
        elif op == "copy":
            dup, dup_model = bm.copy(), ByteModel(nbits)
            dup_model.data[:] = model.data
            assert dup == bm and dup is not bm
            i = rng.randrange(nbits)
            dup.set(i)
            dup_model.set(i)
            _assert_same(bm, model)         # the copy does not write through
            pairs[k] = (dup, dup_model)
        elif op == "roundtrip":
            bm = Bitmap.from_bytes(bm.to_bytes())
            pairs[k] = (bm, model)
        elif op == "query":
            shared = sorted(set(model.bits()) & set(other_model.bits()))
            assert bm.intersection_bits(other) == shared
            assert bm.overlaps(other) == bool(shared)
            assert (bm == other) == (model.data == other_model.data)
            wider = Bitmap(nbits + 8)
            for i in model.bits():
                wider.set(i)
            assert bm != wider and not (bm == wider)   # same bits, wider
            assert bm != model.bits()
        else:
            _assert_rejected(bm, model, rng)
        _assert_same(*pairs[k])

