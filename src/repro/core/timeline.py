"""Text-mode interval timelines — a debugging aid for race reports.

A race report names two intervals; understanding *why* they were concurrent
(which synchronization edges exist, and which are missing) is the usual
next question.  This module renders an execution's intervals as one lane
per process, annotated with their shared accesses, plus the
happens-before-1 edges implied by the vector clocks — the picture the
paper draws by hand in its Figure 2.

Built from a traced run (``track_access_trace=True``), which retains the
per-interval vector clocks that normal runs garbage-collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, starmap
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.baseline.postmortem import (ComputationEvent,
                                           PostMortemAnalyzer,
                                           concurrent_pairs)
from repro.core.baseline.trace import common_words


@dataclass
class HbEdge:
    """A direct happens-before edge: the latest interval of ``src_pid``
    that ``dst`` had seen when it began."""

    src_pid: int
    src_index: int
    dst_pid: int
    dst_index: int

    def __str__(self) -> str:
        return (f"P{self.src_pid}:{self.src_index} -> "
                f"P{self.dst_pid}:{self.dst_index}")


def direct_edges(events: Sequence[ComputationEvent]) -> List[HbEdge]:
    """For every interval, one edge from the latest interval it had seen
    of each *other* process (0 means 'nothing seen': no edge).  These are
    the release->acquire edges the synchronization actually created,
    minus redundant older ones."""
    edges: List[HbEdge] = []
    index = {(ev.pid, ev.index) for ev in events}
    for ev in events:
        for pid in range(len(ev.vc)):
            if pid == ev.pid:
                continue
            seen = ev.vc[pid]
            if seen > 0 and (pid, seen) in index:
                edges.append(HbEdge(pid, seen, ev.pid, ev.index))
    return edges


def _collapse_redundant(edges: List[HbEdge]) -> List[HbEdge]:
    """Keep, per (src_pid, dst interval), only the newest source index."""
    best: Dict[Tuple[int, int, int], HbEdge] = {}
    for e in edges:
        key = (e.src_pid, e.dst_pid, e.dst_index)
        if key not in best or e.src_index > best[key].src_index:
            best[key] = e
    return sorted(best.values(),
                  key=lambda e: (e.dst_pid, e.dst_index, e.src_pid))


def _access_note(ev: ComputationEvent, max_words: int = 3) -> str:
    """`` w:…`` and `` r:…``: each side's first ``max_words`` words."""
    note = ""
    for tag, ranges in ((" w:", ev.writes), (" r:", ev.reads)):
        words = list(islice(chain.from_iterable(starmap(range, ranges)),
                            max_words + 1))
        if words:
            more = "…" if len(words) > max_words else ""
            note += tag + ",".join(map(str, words[:max_words])) + more
    return note


def render_timeline(events: Sequence[ComputationEvent],
                    nprocs: Optional[int] = None,
                    racy_words: Optional[set] = None) -> str:
    """Render lanes plus the direct happens-before edges.

    ``racy_words`` (word addresses) get a ``!`` marker on every interval
    touching them, so a race report can be located at a glance.
    """
    if not events:
        return "(no intervals)"
    nprocs = nprocs or (max(ev.pid for ev in events) + 1)
    racy_words = racy_words or set()
    racy = [(word, word + 1) for word in sorted(racy_words)]
    #: interval -> (the racy words it read, the racy words it wrote).
    hot = {(ev.pid, ev.index): (set(common_words(ev.reads, racy)),
                                set(common_words(ev.writes, racy)))
           for ev in events}
    lines: List[str] = []
    for pid in range(nprocs):
        own = sorted((ev for ev in events if ev.pid == pid),
                     key=lambda ev: ev.index)
        cells = []
        for ev in own:
            mark = "!" if any(hot[pid, ev.index]) else ""
            cells.append(f"[{ev.index}{mark}{_access_note(ev)}]")
        lines.append(f"P{pid} | " + "--".join(cells))
    edges = _collapse_redundant(direct_edges(events))
    if edges:
        lines += ["", "happens-before edges (release -> acquire):",
                  *(f"  {e}" for e in edges)]
    # Concurrent pairs involving racy words, if any.
    if racy_words:
        racy_pairs = []
        for a, b in concurrent_pairs(events):
            (a_reads, a_writes), (b_reads, b_writes) = (
                hot[a.pid, a.index], hot[b.pid, b.index])
            overlap = (a_writes & (b_writes | b_reads)) | (a_reads & b_writes)
            if overlap:
                racy_pairs.append(
                    f"  P{a.pid}:{a.index} || P{b.pid}:{b.index} "
                    f"on words {sorted(overlap)}")
        if racy_pairs:
            lines += ["", "concurrent racy pairs:", *racy_pairs]
    return "\n".join(lines)


def timeline_from_run(system, result) -> str:
    """Build and render the timeline of a traced run, marking the words
    its detector reported.

    Args:
        system: The :class:`~repro.dsm.cvm.CVM` instance (holds the vector
            clock log).
        result: Its :class:`~repro.dsm.cvm.RunResult`.
    """
    if not result.access_trace:
        raise ValueError("timeline needs a run with track_access_trace=True")
    pm = PostMortemAnalyzer(system.store.vc_log)
    events = pm.build_events(result.access_trace)
    return render_timeline(events, nprocs=system.config.nprocs,
                           racy_words={r.addr for r in result.races})
