"""Shared-segment allocator and symbol resolution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsm.memory import SharedSegment
from repro.errors import AllocationError, SegmentationFault


def make_segment(words=1024, page=64):
    return SharedSegment(words, page)


def test_basic_allocation_and_lookup():
    seg = make_segment()
    a = seg.malloc(10, name="a")
    b = seg.malloc(20, name="b")
    assert b >= a + 10
    assert seg.lookup("a").addr == a
    assert seg.lookup("b").nwords == 20


def test_page_aligned_allocation():
    seg = make_segment()
    seg.malloc(10)
    aligned = seg.malloc(5, page_aligned=True)
    assert aligned % 64 == 0


def test_duplicate_name_rejected():
    seg = make_segment()
    seg.malloc(4, name="x")
    with pytest.raises(AllocationError):
        seg.malloc(4, name="x")


def test_exhaustion():
    seg = make_segment(words=128, page=64)
    seg.malloc(100)
    with pytest.raises(AllocationError):
        seg.malloc(100)


def test_free_and_reuse():
    seg = make_segment(words=128, page=64)
    a = seg.malloc(100, name="big")
    seg.free(a)
    b = seg.malloc(100, name="big2")
    assert b == a  # hole was coalesced and reused


def test_free_unallocated_rejected():
    seg = make_segment()
    with pytest.raises(AllocationError):
        seg.free(17)


def test_symbol_resolution():
    seg = make_segment()
    a = seg.malloc(10, name="grid")
    assert seg.symbol_for(a) == "grid"
    assert seg.symbol_for(a + 3) == "grid+3"
    assert seg.symbol_for(900).startswith("0x")  # unmapped


def test_symbol_memo_is_one_string_per_address():
    seg = make_segment()
    a = seg.malloc(10, name="grid")
    assert seg.symbol_for(a + 3) is seg.symbol_for(a + 3)
    assert seg.symbol_for(a + 3) == "grid+3"


def test_symbol_memo_follows_malloc_and_free():
    seg = make_segment()
    # An address that resolves to nothing until it is allocated.
    assert seg.symbol_for(0) == "0x0"
    assert seg.symbol_for(5) == "0x5"
    a = seg.malloc(10, name="old")
    assert a == 0
    assert seg.symbol_for(0) == "old"
    assert seg.symbol_for(5) == "old+5"
    # The same addresses under another name after a free and a malloc.
    seg.free(a)
    assert seg.symbol_for(5) == "0x5"
    assert seg.malloc(10, name="new") == a
    assert seg.symbol_for(0) == "new"
    assert seg.symbol_for(5) == "new+5"


def test_block_of_and_check_range():
    seg = make_segment()
    a = seg.malloc(10, name="arr")
    assert seg.block_of(a + 9).name == "arr"
    with pytest.raises(SegmentationFault):
        seg.block_of(a + 10)
    seg.check_range(a, 10)
    with pytest.raises(SegmentationFault):
        seg.check_range(a, 11)


def test_footprint_metrics():
    seg = make_segment()
    seg.malloc(64, name="one")
    seg.malloc(64, name="two")
    assert seg.allocated_words == 128
    assert seg.allocated_kbytes == pytest.approx(128 * 8 / 1024)
    assert seg.high_water_kbytes >= seg.allocated_kbytes


def test_high_water_remembers_freed_blocks():
    seg = make_segment()
    seg.malloc(64, name="low")
    top = seg.malloc(256, name="top")
    assert seg.high_water_kbytes == pytest.approx(2.5)
    seg.free(top)
    assert seg.allocated_kbytes == pytest.approx(0.5)
    assert seg.high_water_kbytes == pytest.approx(2.5)


def test_page_arithmetic():
    seg = make_segment(page=64)
    assert seg.page_of(0) == 0
    assert seg.page_of(64) == 1
    assert seg.page_offset(65) == 1


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=40),
                          st.booleans()), min_size=1, max_size=30))
def test_allocations_never_overlap(requests):
    """Property: live allocations are pairwise disjoint and in-bounds,
    across interleaved malloc/free."""
    seg = SharedSegment(4096, 64)
    live = {}
    counter = 0
    for nwords, do_free in requests:
        try:
            addr = seg.malloc(nwords, name=f"n{counter}")
        except AllocationError:
            continue
        live[f"n{counter}"] = (addr, nwords)
        counter += 1
        if do_free and live:
            name, (addr, _n) = next(iter(live.items()))
            seg.free(addr)
            del live[name]
        spans = sorted(live.values())
        for (a1, n1), (a2, _n2) in zip(spans, spans[1:]):
            assert a1 + n1 <= a2
        for a, n in spans:
            assert 0 <= a and a + n <= 4096
