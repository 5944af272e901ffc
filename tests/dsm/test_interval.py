"""Interval records: notices, bitmaps, ordering, wire sizes."""

import sys

import pytest

from repro.core.bitmap import BLOOM_SPARSE_MAX
from repro.dsm.interval import Interval
from repro.dsm.node import IntervalStore
from repro.dsm.vector_clock import VectorClock
from repro.net.message import INT_BYTES, WireSizer


def make_interval(pid=0, index=1, vc=None, epoch=0, psz=16):
    return Interval(pid, index, vc or VectorClock([index, 0]), epoch, psz)


def test_record_read_write_populates_notices_and_bitmaps():
    iv = make_interval()
    iv.record_write(3, 5)
    iv.record_read(2, 0, count=4)
    assert iv.write_pages == {3}
    assert iv.read_pages == {2}
    assert iv.write_bitmaps[3].test(5)
    assert all(iv.read_bitmaps[2].test(i) for i in range(4))
    assert not iv.is_empty


def test_record_without_bitmap():
    iv = make_interval()
    iv.record_write(1, 0, bitmap=False)
    assert iv.write_pages == {1}
    assert 1 not in iv.write_bitmaps


def test_closed_interval_rejects_recording():
    iv = make_interval()
    iv.close()
    with pytest.raises(ValueError):
        iv.record_read(0, 0)


def test_merge_write_bitmap():
    from repro.core.bitmap import Bitmap
    iv = make_interval()
    bm = Bitmap(16)
    bm.set(2)
    iv.merge_write_bitmap(5, bm)
    assert iv.write_bitmaps[5].test(2)
    bm2 = Bitmap(16)
    bm2.set(9)
    iv.merge_write_bitmap(5, bm2)
    assert iv.write_bitmaps[5].test(2) and iv.write_bitmaps[5].test(9)


def test_concurrent_with():
    a = Interval(0, 1, VectorClock([1, 0]), 0, 16)
    b = Interval(1, 1, VectorClock([0, 1]), 0, 16)
    c = Interval(1, 2, VectorClock([1, 2]), 0, 16)  # has seen a
    assert a.concurrent_with(b)
    assert not a.concurrent_with(c)
    assert not a.concurrent_with(Interval(0, 2, VectorClock([2, 0]), 0, 16))


def test_wire_size_read_notices_only_with_detection():
    sizer = WireSizer(2, 16)
    iv = make_interval()
    iv.record_write(1, 0)
    iv.record_read(2, 0)
    iv.record_read(3, 0)
    with_reads = iv.wire_size(sizer, with_read_notices=True)
    without = iv.wire_size(sizer, with_read_notices=False)
    assert with_reads - without == iv.read_notice_wire_size(sizer)
    assert iv.read_notice_wire_size(sizer) == (1 + 2) * INT_BYTES


def store_of(*intervals):
    store = IntervalStore()
    for iv in intervals:
        iv.close()
        store.add(iv)
    return store


def writer(pid, index):
    iv = make_interval(pid, index)
    iv.record_write(0, pid)
    return iv


def test_intervals_unseen_by():
    store = store_of(writer(0, 1), writer(0, 2), writer(0, 3), writer(1, 1))
    # A process whose clock names [1, 0], against one that names [3, 1].
    assert [(iv.pid, iv.index) for iv in store.records(0, 1, 3)] == \
        [(0, 2), (0, 3)]
    assert [(iv.pid, iv.index) for iv in store.records(1, 0, 1)] == [(1, 1)]
    # An entry that is already covered contributes nothing.
    assert store.records(0, 3, 3) == []
    assert store.records(0, 3, 1) == []
    assert store.records(2, 0, 5) == []  # a pid with no records


def test_intervals_unseen_by_skips_missing_records():
    # Index 1 was discarded, index 3 is empty (no notices: never travels).
    store = store_of(writer(0, 2), make_interval(0, 3))
    got = store.records(0, 0, 3)
    assert [(iv.pid, iv.index) for iv in got] == [(0, 2)]


# ---------------------------------------------------------------------- #
# Sealed wire figures: a closed record is priced once.
# ---------------------------------------------------------------------- #
SIZER = WireSizer(2, 16)


def definitions(iv):
    """The three figures straight from their defining methods."""
    return (iv.wire_size(SIZER, True), iv.read_notice_wire_size(SIZER),
            iv.digest_wire_size(SIZER))


def bitmap_of(*offsets):
    from repro.core.bitmap import Bitmap
    bm = Bitmap(16)
    for off in offsets:
        bm.set(off)
    return bm


def test_open_interval_is_never_memoised():
    iv = make_interval()
    iv.record_write(1, 0)
    before = iv.wire_figures(SIZER, True, True)
    assert before == definitions(iv)
    iv.record_read(2, 3)
    after = iv.wire_figures(SIZER, True, True)
    assert after == definitions(iv)
    assert after != before
    assert iv._wire is None


def test_closed_interval_is_priced_once(monkeypatch):
    iv = make_interval()
    iv.record_write(1, 0)
    iv.record_read(2, 3)
    iv.close()
    figures = iv.wire_figures(SIZER, True, True)
    assert figures == definitions(iv)

    def priced_again(self, sizer):
        raise AssertionError("a sealed record was priced again")

    monkeypatch.setattr(Interval, "digest_wire_size", priced_again)
    assert iv.wire_figures(SIZER, True, True) is figures


def finalized_digest_bytes(iv):
    """The digest figure read off the finalized digests themselves."""
    return sum(SIZER.digest(iv.digest(page, kind)[1] is not None)
               for kind, pages in (("write", iv.write_pages),
                                   ("read", iv.read_pages))
               for page in pages)


def test_digest_bytes_are_priced_without_finalizing_a_digest():
    iv = make_interval()
    iv.record_write(1, 0, bitmap=False)  # no bitmap: digests to (0, 0)
    iv.record_write(2, 0, count=BLOOM_SPARSE_MAX)  # sparse: Bloom carried
    iv.record_read(3, 0, count=BLOOM_SPARSE_MAX + 1)  # dense: none
    iv.record_read(4, 5)
    iv.close()
    priced = iv.digest_wire_size(SIZER)
    assert iv._digests == {}
    assert priced == 3 * SIZER.digest(True) + SIZER.digest(False)
    assert priced == finalized_digest_bytes(iv)


def falsely_shared_then_locked(env):
    """A falsely shared page written outside any lock, which the filter
    is asked about, then private pages written in one lock's critical
    sections, which it is never asked about."""
    psz = env.system.config.page_size_words
    shared = env.malloc(psz, name="shared", page_aligned=True)
    private = env.malloc(env.nprocs * psz, name="private", page_aligned=True)
    env.barrier()
    env.store(shared + env.pid, env.pid)
    for it in range(4):
        with env.locked(0):
            env.store(private + env.pid * psz, it)
    env.barrier()


def test_a_run_finalizes_only_the_digests_the_filter_reads(monkeypatch):
    """Pricing a record for shipping finalizes none of its digests: each
    one finalized in a run is one the two-level filter (``repro.core``)
    asked for.  While pricing finalized every digest it priced, this run
    finalized 20 digests for the 4 the filter reads."""
    from repro.dsm import interval
    from tests.helpers import run_app

    asked, finalized, key = set(), [], [None]
    digest, coarse_digest = Interval.digest, interval.coarse_digest

    def counted_digest(self, page, kind):
        if sys._getframe(1).f_globals["__name__"].startswith("repro.core."):
            asked.add((id(self), page, kind))
        outer, key[0] = key[0], (id(self), page, kind)
        try:
            return digest(self, page, kind)
        finally:
            key[0] = outer

    def counted_coarse_digest(bm, nbits):
        finalized.append(key[0])
        return coarse_digest(bm, nbits)

    monkeypatch.setattr(Interval, "digest", counted_digest)
    monkeypatch.setattr(interval, "coarse_digest", counted_coarse_digest)
    result = run_app(falsely_shared_then_locked, nprocs=4)
    assert result.detector_stats.pairs_filtered > 0
    assert finalized
    assert set(finalized) <= asked
    assert len(finalized) == len(set(finalized))


def test_figures_leave_out_what_the_run_does_not_ship():
    iv = make_interval()
    iv.record_write(1, 0)
    iv.record_read(2, 3)
    iv.close()
    body, reads, digests = definitions(iv)
    assert iv.wire_figures(SIZER, True, False) == (body, reads, 0)
    iv._wire = None
    assert iv.wire_figures(SIZER, False, False) == (
        iv.wire_size(SIZER, False), 0, 0)


def test_merge_after_close_refreshes_body_and_digest_bytes():
    iv = make_interval()
    iv.record_write(1, 0)
    iv.close()
    body, reads, digests = iv.wire_figures(SIZER, True, True)
    assert digests == SIZER.digest(True)  # one sparse page: Bloom carried
    # A new page: one more write notice, one more (sparse) digest.
    iv.merge_write_bitmap(5, bitmap_of(2))
    grown = iv.wire_figures(SIZER, True, True)
    assert grown == definitions(iv)
    assert grown == (body + INT_BYTES, reads, digests + SIZER.digest(True))
    # Sparse -> dense on a page already named: the notice list is
    # unchanged, the page's digest loses its Bloom filter.
    iv.merge_write_bitmap(1, bitmap_of(*range(1, 10)))
    flipped = iv.wire_figures(SIZER, True, True)
    assert flipped == definitions(iv)
    assert flipped == (grown[0], reads,
                       grown[2] - SIZER.digest(True) + SIZER.digest(False))
    assert iv.wire_figures(SIZER, True, True) is flipped


def test_lost_record_prices_as_before():
    iv = make_interval()
    iv.record_write(1, 0)
    iv.record_read(2, 3)
    iv.close()
    iv.lost = True
    assert iv.wire_figures(SIZER, True, True) == definitions(iv)


@pytest.mark.parametrize("flags", [
    dict(protocol="mw", diff_write_detection=True),
    dict(master_failover=True, crash_at=((0, 1),)),
], ids=["mw-diff", "failover"])
def test_sealed_run_equals_a_run_priced_on_every_visit(monkeypatch, flags):
    """water@4 with the sealed figures against the same run with the slot
    cleared before every read: ledgers, per-tag traffic and failover
    counters agree."""
    from repro.apps.registry import get_app

    def observed(res):
        return ([ledger.totals for ledger in res.ledgers],
                dict(res.traffic.messages_by_tag),
                dict(res.traffic.bytes_by_tag),
                res.traffic.read_notice_bytes, res.traffic.digest_bytes,
                res.failover_stats, res.runtime_cycles,
                sorted(str(r) for r in res.races))

    sealed = observed(get_app("water").run(nprocs=4, **flags))
    priced_once = Interval.wire_figures

    def priced_every_visit(self, *args):
        self._wire = None
        return priced_once(self, *args)

    monkeypatch.setattr(Interval, "wire_figures", priced_every_visit)
    assert observed(get_app("water").run(nprocs=4, **flags)) == sealed
