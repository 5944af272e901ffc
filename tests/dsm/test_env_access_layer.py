"""The Env access layer: range semantics, tracking granularity, costs."""

import contextlib

import pytest

from tests.dsm.reference_env import reference_engine
from tests.helpers import run_app, run_app_with_system

from repro.sim.costmodel import CostCategory


def test_range_race_detected_at_overlapping_words_only():
    """Two range writes overlapping in [8, 12) race exactly there."""
    def app(env):
        x = env.malloc(16, name="x")
        env.barrier()
        if env.pid == 0:
            env.store_range(x, [1] * 12)       # words 0..11
        else:
            env.store_range(x + 8, [2] * 8)    # words 8..15
        env.barrier()

    res = run_app(app, nprocs=2)
    assert sorted(r.addr for r in res.races) == [8, 9, 10, 11]


def test_range_spanning_pages_tracked_per_page():
    def app(env):
        x = env.malloc(40, name="x")   # pages 0..2 with 16-word pages
        env.barrier()
        if env.pid == 0:
            env.store_range(x, list(range(40)))
        else:
            env.load(x + 33)           # one word on the third page
        env.barrier()

    res = run_app(app, nprocs=2)
    assert len(res.races) == 1
    assert res.races[0].addr == 33


def test_empty_ranges_are_noops():
    def app(env):
        x = env.malloc(4, name="x")
        env.store_range(x, [])
        assert env.load_range(x, 0) == []
        return True

    res = run_app(app, nprocs=1)
    assert res.results == [True]


def test_single_word_range_equivalent_to_scalar():
    def app(env):
        x = env.malloc(2, name="x")
        env.store_range(x, [42])
        return env.load(x)

    assert run_app(app, nprocs=1).results == [42]


def test_access_counters_count_words_not_calls():
    def app(env):
        x = env.malloc(32, name="x")
        env.store_range(x, [0] * 32)   # 32 instrumented accesses
        env.load(x)                    # +1

    res = run_app(app, nprocs=1)
    assert res.metrics["dsm.env.words"] == 33


def test_proc_call_cost_scales_with_words():
    def app(env):
        x = env.malloc(32, name="x")
        env.store_range(x, [0] * 32)

    _sys, res = run_app_with_system(app, nprocs=1)
    ledger = res.aggregate_ledger()
    cm = res.config.cost_model
    assert ledger.totals[CostCategory.PROC_CALL] == \
        pytest.approx(32 * cm.proc_call)
    assert ledger.totals[CostCategory.ACCESS_CHECK] == \
        pytest.approx(32 * cm.access_check_shared)


def test_site_annotation_reaches_reports_via_watch():
    from repro.dsm.cvm import CVM
    from tests.helpers import small_config

    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        env.store(x, env.pid, site="here:42")
        env.barrier()

    cfg = small_config(nprocs=2)
    system = CVM(cfg)
    system.pc_watch = {0: []}
    system.run(app)
    sites = {hit[2] for hit in system.pc_watch[0]}
    assert "here:42" in sites


def test_pause_creates_no_ordering():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        if env.pid == 0:
            env.store(x, 1)
        else:
            env.pause(5)
            env.load(x)
        env.barrier()

    res = run_app(app, nprocs=2)
    assert len(res.races) == 1  # pause did not order the accesses


def test_compute_charges_base_only():
    def app(env):
        env.compute(100)

    # With detection off there is no overhead of any kind; with detection
    # on, compute() itself still adds nothing beyond the detector's fixed
    # per-epoch work (no per-unit instrumentation).
    _sys, off = run_app_with_system(app, nprocs=1, detection=False)
    assert off.aggregate_ledger().overhead == pytest.approx(0.0)

    _sys, small = run_app_with_system(app, nprocs=1)
    _sys, large = run_app_with_system(lambda env: env.compute(100_000),
                                      nprocs=1)
    assert large.aggregate_ledger().overhead == \
        pytest.approx(small.aggregate_ledger().overhead)


# ---------------------------------------------------------------------- #
# The range engines' page-splitting edge cases.
# ---------------------------------------------------------------------- #
def _chunks_reference(addr, count, psz):
    out = []
    for a in range(addr, addr + count):
        page, off = divmod(a, psz)
        if out and out[-1][0] == page:
            page0, off0, length = out[-1]
            out[-1] = (page0, off0, length + 1)
        else:
            out.append((page, off, 1))
    return out


def _observed_chunks(addr, count):
    """(page, offset, length) runs a range access of [addr, addr+count)
    left in the interval's read and write bitmaps, and the words read."""
    def runs(bitmaps):
        out = []
        for page in sorted(bitmaps):
            bits = list(bitmaps[page].iter_set_bits())
            assert bits == list(range(bits[0], bits[0] + len(bits)))
            out.append((page, bits[0], len(bits)))
        return out

    def app(env):
        x = env.malloc(64, name="x")
        env.store_range(x + addr, list(range(100, 100 + count)))
        words = env.load_range(x + addr, count)
        interval = env.system.nodes[env.pid].current
        return (runs(interval.write_bitmaps), runs(interval.read_bitmaps),
                words)

    return run_app(app, nprocs=1).results[0]


@pytest.mark.parametrize("addr,count", [
    (0, 1), (0, 16), (5, 11), (5, 12), (15, 1), (15, 2),
    (0, 17), (0, 32), (0, 33), (7, 40), (16, 16), (31, 3),
])
def test_page_chunks_match_reference(addr, count):
    expected = _chunks_reference(addr, count, 16)
    for engine in (contextlib.nullcontext, reference_engine):
        with engine():
            written, read, words = _observed_chunks(addr, count)
        assert written == read == expected
        assert words == list(range(100, 100 + count))


def test_page_chunks_single_page_cases():
    """The loop-free single-page case covers exact fits too."""
    assert [_observed_chunks(addr, count)[0]
            for addr, count in [(0, 16),    # exactly one full page
                                (3, 13),    # to the page's last word
                                (16, 1),    # first word of a later page
                                (31, 1)]    # last word of a page
            ] == [[(0, 0, 16)], [(0, 3, 13)], [(1, 0, 1)], [(1, 15, 1)]]


def test_store_range_exact_page_multiple_roundtrip():
    def app(env):
        x = env.malloc(48, name="x")      # three full 16-word pages
        env.store_range(x, list(range(48)))
        return env.load_range(x, 48)

    res = run_app(app, nprocs=1)
    assert res.results == [list(range(48))]


def test_store_range_straddling_unaligned_roundtrip():
    def app(env):
        x = env.malloc(64, name="x")
        env.store_range(x + 13, list(range(100, 137)))  # 37 words, 3 pages
        return env.load_range(x + 13, 37)

    res = run_app(app, nprocs=1)
    assert res.results == [list(range(100, 137))]


def test_store_range_accepts_tuple_without_copy():
    """The single-page path assigns the sequence into the page slice
    directly — no intermediate list copy — so any sequence works."""
    def app(env):
        x = env.malloc(16, name="x")
        env.store_range(x + 2, (7, 8, 9))
        return env.load_range(x, 6)

    res = run_app(app, nprocs=1)
    assert res.results == [[0, 0, 7, 8, 9, 0]]


def test_store_range_does_not_mutate_caller_values():
    def app(env):
        x = env.malloc(40, name="x")
        vals = list(range(40))
        env.store_range(x, vals)
        return vals

    res = run_app(app, nprocs=1)
    assert res.results == [list(range(40))]


def test_out_of_segment_range_faults_without_partial_write():
    from repro.errors import ProcessFailure

    def app(env):
        end = env.system.segment.segment_words
        x = env.malloc(8, name="x")
        env.barrier()
        env.store_range(end - 4, [1] * 8)  # runs off the end

    from repro.dsm.cvm import CVM
    from repro.errors import SegmentationFault
    from tests.helpers import small_config
    system = CVM(small_config(nprocs=1))
    with pytest.raises(ProcessFailure) as exc_info:
        system.run(app)
    assert isinstance(exc_info.value.__cause__, SegmentationFault)


def test_range_engines_agree_on_straddling_contents(engine):
    """Both engines place identical words for a multi-page store; the
    racy overlap lands at the same addresses either way."""
    def app(env):
        x = env.malloc(40, name="x")
        env.barrier()
        if env.pid == 0:
            env.store_range(x + 10, list(range(200, 224)))  # words 10..33
        else:
            env.store_range(x + 30, [5] * 8)                # words 30..37
        env.barrier()

    res = run_app(app, nprocs=2)
    assert sorted(r.addr for r in res.races) == [30, 31, 32, 33]


# ---------------------------------------------------------------------- #
# Range faults: raised as the faulting process, through the block cache.
# ---------------------------------------------------------------------- #
def _range_faults():
    """(operation, .pid, message) of every range fault process 1 takes."""
    from repro.errors import SegmentationFault

    def app(env):
        x = env.malloc(8, name="x")
        y = env.malloc(8, name="y")
        env.barrier()
        if env.pid != 1:
            return None
        faults = []

        def attempt(what, op, *args):
            try:
                op(*args)
            except SegmentationFault as exc:
                faults.append((what, exc.pid, str(exc)))

        assert env.load_range(x, 8) == [0] * 8     # x is now the cached block
        attempt("load past end", env.load_range, x + 4, 8)
        attempt("store past end", env.store_range, x + 4, [1] * 8)
        attempt("load crossing into y", env.load_range, x + 6, 4)
        attempt("load unmapped", env.load_range, y + 100, 2)
        attempt("store unmapped", env.store_range, y + 100, [1, 2])
        assert env.load_range(x, 8) == [0] * 8     # nothing was written
        env.system.segment.free(x)
        attempt("load freed", env.load_range, x, 8)
        attempt("store freed", env.store_range, x, [1] * 8)
        assert env.malloc(4, name="x2") == x       # first fit reuses the hole
        assert env.load_range(x, 4) == [0] * 4
        attempt("load past shrunk block", env.load_range, x, 8)
        return faults

    return run_app(app, nprocs=2).results[1]


def test_range_faults_name_the_faulting_process(engine):
    faults = _range_faults()
    assert [what for what, _pid, _msg in faults] == [
        "load past end", "store past end", "load crossing into y",
        "load unmapped", "store unmapped", "load freed", "store freed",
        "load past shrunk block"]
    for _what, pid, message in faults:
        assert pid == 1
        assert message.startswith("P1: segmentation fault at word address ")
    messages = dict((what, msg) for what, _pid, msg in faults)
    assert "word address 11 (range runs off the end of 'x')" in \
        messages["load past end"]
    assert "word address 9 (range runs off the end of 'x')" in \
        messages["load crossing into y"]
    assert "word address 0 (unmapped address)" in messages["load freed"]
    assert "word address 7 (range runs off the end of 'x2')" in \
        messages["load past shrunk block"]


def test_range_fault_messages_agree_across_engines():
    production = _range_faults()
    with reference_engine():
        assert _range_faults() == production
