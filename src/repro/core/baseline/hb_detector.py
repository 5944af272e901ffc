"""Exact per-access happens-before oracle.

Given the full shared-access trace of a run and the vector clock of every
interval, this detector applies Definition 2 of the paper directly: two
accesses race iff they touch the same word, at least one writes, and their
intervals are unordered by happens-before-1.  It reads the trace and the
vector-clock log and makes *no* use of pages, notices, check lists, epochs
or the production engine's window search — a fully independent oracle for
validating the online detector (the online system must report exactly the
racy (word, interval-pair) set this one computes).

No judgement is made twice: words with the same *accessor set* — the same
``(pid, interval, is_write)`` triples — race on the same pairs, so each
distinct set is analysed once, and ``concurrent`` is evaluated once per
(writer, other) interval pair.  Cost: grouping is one sweep of the
address line over the trace's :func:`~repro.core.baseline.trace.fold` —
a step per range at its two boundaries and one ``frozenset`` per run of
words between them, so a range costs what the trace holds, not what it
spans — then set algebra per (accessor set, writer); default Water@8 is
434 words, 74 sets, 13.6 k verdicts.  The word-by-word body this
replaced is the executable spec ``tests/core/baseline/reference_hb.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.baseline.trace import AccessTrace, fold
from repro.dsm.vector_clock import VectorClock, concurrent

#: A canonical race key: (kind, word address, ((pid, idx, access) sorted)).
RaceKey = Tuple[str, int, Tuple[Tuple[int, int, str], ...]]
#: One deduplicated access to a word: (pid, interval index, is_write).
Access = Tuple[int, int, bool]
IntervalId = Tuple[int, int]
#: interval -> (the intervals it has been compared with, the concurrent ones).
Verdicts = Dict[IntervalId, Tuple[Set[IntervalId], Set[IntervalId]]]


def make_race_key(kind: str, addr: int,
                  a: Tuple[int, int, str], b: Tuple[int, int, str]) -> RaceKey:
    return (kind, addr, tuple(sorted((a, b))))


class HappensBeforeDetector:
    """Happens-before race detection over a trace, word by word."""

    def __init__(self, vc_log: Dict[Tuple[int, int], VectorClock]):
        #: (pid, interval index) -> vector clock at interval start.
        self.vc_log = vc_log

    def _vc(self, pid: int, index: int) -> VectorClock:
        try:
            return self.vc_log[(pid, index)]
        except KeyError:
            raise KeyError(
                f"no vector clock logged for P{pid} interval {index}; "
                "was track_access_trace enabled?") from None

    def _concurrent_with(self, a: IntervalId, others: Set[IntervalId],
                         verdicts: Verdicts) -> Set[IntervalId]:
        """The members of ``others`` concurrent with interval ``a``: each
        (a, b) is put to ``concurrent`` on first sight and remembered."""
        decided, unordered = verdicts.setdefault(a, (set(), set()))
        new = others - decided
        if new:
            pid, index = a
            vc = self._vc(pid, index)
            for b in new:
                if b[0] != pid and concurrent(pid, index, vc,
                                              *b, self._vc(*b)):
                    unordered.add(b)
            decided |= new
        return others & unordered

    @staticmethod
    def accessor_sets(trace: AccessTrace
                      ) -> Dict[FrozenSet[Access], List[int]]:
        """The words of the trace grouped by who accessed them: two words
        with the same accessor set have the same races.

        One sweep of the address line over the trace's :func:`fold`: each
        boundary of a range toggles its accessor in the cover (the fold
        leaves no two ranges of one accessor touching, so a boundary is
        an entry or an exit), and every run of words between two
        consecutive boundaries shares the accessors covering it."""
        edges: Dict[int, List[Access]] = defaultdict(list)
        for (pid, index), sides in fold(trace).items():
            for is_write, ranges in zip((False, True), sides):
                for start, end in ranges:
                    edges[start].append((pid, index, is_write))
                    edges[end].append((pid, index, is_write))
        groups: Dict[FrozenSet[Access], List[int]] = {}
        cover: Set[Access] = set()
        points = sorted(edges)
        for here, there in zip(points, points[1:]):
            cover.symmetric_difference_update(edges[here])
            if cover:
                groups.setdefault(frozenset(cover), []).extend(
                    range(here, there))
        return groups

    def races(self, trace: AccessTrace) -> Set[RaceKey]:
        """All racy (kind, word, interval-pair) triples in the trace."""
        verdicts: Verdicts = {}
        out: Set[RaceKey] = set()
        for accessors, words in self.accessor_sets(trace).items():
            # A writer against every other writer and every reader (two
            # reads cannot race); a racy writer pair comes up twice, one key.
            writers = {(pid, index) for pid, index, w in accessors if w}
            readers = {(pid, index) for pid, index, w in accessors if not w}
            for a in writers:
                for kind, others, access in (
                        ("write-write", writers, "write"),
                        ("read-write", readers, "read")):
                    for b in self._concurrent_with(a, others, verdicts):
                        sides = (*a, "write"), (*b, access)
                        out.update(make_race_key(kind, word, *sides)
                                   for word in words)
        return out

    def racy_words(self, trace: AccessTrace) -> Set[int]:
        """Just the racy word addresses (the coarsest comparison level)."""
        return {addr for _kind, addr, _sides in self.races(trace)}
