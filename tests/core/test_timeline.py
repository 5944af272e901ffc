"""Interval timeline rendering."""

import pytest

from tests.helpers import run_app_with_system

from repro.core.baseline.postmortem import ComputationEvent
from repro.core.timeline import (HbEdge, _collapse_redundant, direct_edges,
                                 render_timeline, timeline_from_run)
from repro.dsm.vector_clock import VectorClock


def ev(pid, index, vc, reads=(), writes=()):
    """An event whose reads and writes are ``[start, end)`` ranges."""
    return ComputationEvent(pid, index, VectorClock(vc),
                            reads=list(reads), writes=list(writes))


def test_direct_edges_from_vcs():
    events = [ev(0, 1, [1, 0]), ev(1, 2, [1, 2])]
    edges = direct_edges(events)
    assert [str(e) for e in edges] == ["P0:1 -> P1:2"]


def test_edges_skip_unlogged_sources():
    events = [ev(1, 2, [5, 2])]  # P0:5 not in the event set
    assert direct_edges(events) == []


def test_collapse_keeps_newest():
    edges = [HbEdge(0, 1, 1, 3), HbEdge(0, 2, 1, 3)]
    kept = _collapse_redundant(edges)
    assert len(kept) == 1 and kept[0].src_index == 2


def test_render_marks_racy_words():
    events = [ev(0, 1, [1, 0], writes=[(7, 8)]),
              ev(1, 1, [0, 1], writes=[(7, 8)])]
    out = render_timeline(events, racy_words={7})
    assert "1! w:7" in out
    assert "concurrent racy pairs:" in out
    assert "P0:1 || P1:1 on words [7]" in out


def test_render_empty():
    assert render_timeline([]) == "(no intervals)"


def test_render_orders_lanes_and_edges():
    events = [ev(0, 1, [1, 0], writes=[(3, 4)]),
              ev(0, 2, [2, 1]),
              ev(1, 1, [0, 1], reads=[(3, 4)]),
              ev(1, 2, [1, 2])]
    out = render_timeline(events)
    lanes = out.splitlines()
    assert lanes[0].startswith("P0 | [1 w:3]--[2]")
    assert lanes[1].startswith("P1 | [1 r:3]--[2]")
    assert "P0:1 -> P1:2" in out
    assert "P1:1 -> P0:2" in out


def test_timeline_from_traced_run():
    def app(env):
        x = env.malloc(1, name="x")
        env.barrier()
        env.store(x, env.pid)   # racy
        env.barrier()

    system, res = run_app_with_system(app, nprocs=2,
                                      track_access_trace=True)
    out = timeline_from_run(system, res)
    assert "P0 |" in out and "P1 |" in out
    assert "!" in out                       # the racy word is marked
    assert "concurrent racy pairs:" in out


def test_timeline_requires_trace():
    def app(env):
        env.barrier()

    system, res = run_app_with_system(app, nprocs=2)
    with pytest.raises(ValueError):
        timeline_from_run(system, res)


def test_access_note_truncation():
    e = ev(0, 1, [1], writes=[(0, 10)])
    out = render_timeline([e])
    assert "…" in out
