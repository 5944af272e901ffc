"""A timing-free budget for consistency shipping and the window search.

Counts the Python-level calls (``sys.setprofile`` ``call`` events, the
counter of ``test_access_call_budget.py``) of the two loops that visit
closed interval records most often, on a fixed 8-pid lock-only program
(six critical sections per pid under its own lock, two falsely shared
pages, one barrier):

* one barrier's **release pass** — the coordinator ships every other
  process the records it is missing and applies their write notices.
  Each owner's range of records is summarized once per pass and shared by
  every receiver whose clock names it (8 ranges, 48 records priced, for
  294 records shipped), and each receiver applies the union of its
  ranges' write pages in one ``apply_write_notice``: per receiver, the
  message, the accounting and one directory lookup per page it holds a
  valid copy of;
* one ``concurrency_windows`` **block** per probe: the generator's own
  resumptions, no call per probe — and, for a block whose corners are
  unordered, no call per interval either: the same count at 8 and at 64
  intervals per pid.

The release-pass and unordered-block ceilings are the counts of the
code as it stands.  Before the
records were sealed (PR 20's parent) the same program made 9,081 calls
in the release pass (30.9 per record: each visit re-ran ``wire_size``,
``read_notice_wire_size``, ``digest_wire_size`` and asked the directory
about every page) and 80 in the block (2.67 per probe: ``precedes`` and
``VectorClock.__getitem__`` once each per probe); before owner ranges
were summarized, 1,258 in the release pass (4.28 per record:
``wire_figures`` and ``apply_write_notice`` at every visit of a record).
"""

import pytest

from repro.core.checklist import PageIndex
from repro.core.concurrency import (PairSearchStats, concurrency_windows,
                                    group_by_pid)
from repro.dsm.cvm import CVM
from repro.dsm.interval import Interval
from repro.dsm.vector_clock import VectorClock
from tests.dsm.reference_release import unseen
from tests.dsm.test_access_call_budget import count_calls
from tests.helpers import small_config

NPROCS = 8
SECTIONS = 6

#: 294 records shipped, 1.10 calls each.
RELEASE_PASS_CEILING = 324
#: 30 probes: 10 calls when the block was bisected interval by interval,
#: 3 now that it is one unordered run.
WINDOW_BLOCK_CEILING = 10
#: One unordered block through ``PageIndex.scan``, whatever its size.
UNORDERED_BLOCK_CEILING = 3


def program(env):
    psz = env.system.config.page_size_words
    base = env.malloc(2 * psz, name="field", page_aligned=True)
    for it in range(SECTIONS):
        with env.locked(env.pid):
            env.store(base + env.pid, it)
            env.store(base + psz + env.pid, it)
    env.barrier()


@pytest.fixture(scope="module")
def counted_run():
    """Run ``program`` once; the first barrier's release-pass calls, the
    number of records that pass shipped, and the epoch's records."""
    system = CVM(small_config(nprocs=NPROCS))
    release_pass = system.sync._barrier_release_pass
    seen = {}

    def counted(bar, master_node):
        if seen:  # the implicit final barrier: nothing left to ship
            return release_pass(bar, master_node)
        seen["shipped"] = sum(
            len(unseen(system.store, system.nodes[other].vc, master_node.vc))
            for other in range(NPROCS) if other != master_node.pid)
        seen["epoch"] = system.store.epoch_intervals(
            system.sync.barrier_state.generation)
        seen["calls"] = count_calls(release_pass, bar, master_node)

    system.sync._barrier_release_pass = counted
    system.run(program)
    return seen["calls"], seen["shipped"], seen["epoch"]


def test_release_pass_stays_within_its_call_budget(counted_run):
    calls, shipped, _epoch = counted_run
    # Every other process has seen only itself: it misses the critical
    # sections of the seven others (the intervals between are empty).
    assert shipped == (NPROCS - 1) * (NPROCS - 1) * SECTIONS
    assert len(calls) <= RELEASE_PASS_CEILING, (len(calls) / shipped, calls)


def test_window_block_stays_within_its_call_budget(counted_run):
    _calls, _shipped, epoch = counted_run
    by_pid = group_by_pid([rec for rec in epoch if not rec.is_empty])
    stats = PairSearchStats()
    calls = count_calls(
        lambda: list(concurrency_windows(by_pid, [(0, 1)], stats)))
    assert stats.comparisons == 30
    assert len(calls) <= WINDOW_BLOCK_CEILING, (
        len(calls) / stats.comparisons, calls)


def unordered_block(size):
    """Two pids of ``size`` intervals each, after a barrier at which each
    saw the other's first ``size`` intervals, and unordered since."""
    recs = []
    for pid in (0, 1):
        for k in range(size):
            entries = [size, size]
            entries[pid] = size + 1 + k
            rec = Interval(pid, size + 1 + k, VectorClock(entries), 1, 16)
            rec.record_write(k % 3, pid)
            recs.append(rec)
    return recs


def test_unordered_block_costs_the_same_at_any_size():
    counts = []
    for size in (8, 64):
        index = PageIndex(unordered_block(size))
        stats = PairSearchStats()
        calls = count_calls(index.scan, [(0, 1)], stats)
        assert stats.concurrent_pairs == size * size
        counts.append(len(calls))
    assert counts[0] == counts[1] <= UNORDERED_BLOCK_CEILING, counts
