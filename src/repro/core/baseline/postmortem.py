"""Adve-style post-mortem trace analysis (the paper's closest relative, §7).

Adve, Hill, Miller and Netzer proposed (but did not implement) detecting
races on weak memory systems from per-process trace logs: *computation
events* delimited by synchronization, each carrying READ/WRITE attribute
sets, ordered by logged synchronization information, analyzed offline.

This module reimplements that scheme faithfully on top of our trace: it
reconstructs computation events (== CVM intervals) with their read and
write word ranges (the trace's :func:`~repro.core.baseline.trace.fold`),
then finds unordered event pairs with overlapping attributes.  Unlike
:mod:`repro.core.baseline.hb_detector` it mirrors the *structure* of the
paper's online algorithm (interval-granularity pairs, then word overlap:
a merge of two range lists), but runs entirely post-mortem from a log —
so comparing the two quantifies exactly what the paper claims to save:
the log that never needs to be written (``log_bytes``) and the analysis
deferred to after the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.core.baseline.hb_detector import RaceKey, make_race_key
from repro.core.baseline.trace import Ranges, TraceEvent, common_words, fold
from repro.dsm.vector_clock import VectorClock, concurrent


@dataclass
class ComputationEvent:
    """One computation event: an interval plus its access attributes."""

    pid: int
    index: int
    vc: VectorClock
    reads: Ranges
    writes: Ranges


def concurrent_pairs(events: Sequence[ComputationEvent]
                     ) -> Iterator[Tuple[ComputationEvent, ComputationEvent]]:
    """Every pair of events on different processes that happens-before-1
    leaves unordered, ``a`` before ``b`` in ``events``' order — the
    O(n²) walk both the analysis and the timeline make."""
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a.pid != b.pid and concurrent(a.pid, a.index, a.vc,
                                             b.pid, b.index, b.vc):
                yield a, b


class PostMortemAnalyzer:
    """Offline analysis of a complete access trace."""

    def __init__(self, vc_log: Dict[Tuple[int, int], VectorClock]):
        self.vc_log = vc_log

    def build_events(self, trace: Iterable[TraceEvent]
                     ) -> List[ComputationEvent]:
        """Reconstruct computation events from the flat access log."""
        events = []
        for (pid, index), (reads, writes) in sorted(fold(trace).items()):
            vc = self.vc_log.get((pid, index))
            if vc is None:
                raise KeyError(f"no ordering information logged for P{pid} "
                               f"interval {index}")
            events.append(ComputationEvent(pid, index, vc, reads, writes))
        return events

    def races(self, trace: Iterable[TraceEvent]) -> Set[RaceKey]:
        """Racy (kind, word, interval-pair) triples, post-mortem."""
        out: Set[RaceKey] = set()
        for a, b in concurrent_pairs(self.build_events(trace)):
            for kind, a_side, xs, b_side, ys in (
                    ("write-write", "write", a.writes, "write", b.writes),
                    ("read-write", "write", a.writes, "read", b.reads),
                    ("read-write", "read", a.reads, "write", b.writes)):
                for word in common_words(xs, ys):
                    out.add(make_race_key(kind, word, (a.pid, a.index, a_side),
                                          (b.pid, b.index, b_side)))
        return out

    @staticmethod
    def log_bytes(trace: Iterable[TraceEvent]) -> int:
        """Size of the trace log a post-mortem system would have written —
        the storage the paper's online approach avoids entirely."""
        return sum(ev.log_bytes for ev in trace)
