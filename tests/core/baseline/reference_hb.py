"""The brute-force happens-before oracle, kept as an executable spec.

This is the body ``HappensBeforeDetector.races`` had until PR 24, verbatim:
every pair of deduplicated accesses of every word is walked, read-read
pairs included, and ``concurrent`` is evaluated once per word per pair.
``repro.core.baseline.hb_detector`` now groups words by accessor set and
remembers one verdict per interval pair;
``tests/core/baseline/test_hb_matches_reference.py`` holds it, and the
post-mortem analyzer, to this class, key set for key set.  It expands
each access into its words itself, so it shares nothing with
:func:`repro.core.baseline.trace.fold`, which both of them read.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.core.baseline.hb_detector import RaceKey, make_race_key
from repro.core.baseline.trace import TraceEvent
from repro.dsm.vector_clock import VectorClock, concurrent


class ReferenceHappensBeforeDetector:
    """Brute-force happens-before race detection over a trace."""

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

    def _concurrent(self, a_pid: int, a_idx: int,
                    b_pid: int, b_idx: int) -> bool:
        return concurrent(a_pid, a_idx, self._vc(a_pid, a_idx),
                          b_pid, b_idx, self._vc(b_pid, b_idx))

    def races(self, trace: Iterable[TraceEvent]) -> Set[RaceKey]:
        """All racy (kind, word, interval-pair) triples in the trace."""
        # Group accesses by word: (pid, interval, is_write), deduplicated —
        # repeated identical accesses add nothing.
        by_word: Dict[int, Set[Tuple[int, int, bool]]] = {}
        for ev in trace:
            for word in range(ev.addr, ev.addr + ev.count):
                by_word.setdefault(word, set()).add(
                    (ev.pid, ev.interval_index, ev.is_write))
        out: Set[RaceKey] = set()
        for word, accesses in by_word.items():
            acc = sorted(accesses)
            for i, (p1, i1, w1) in enumerate(acc):
                for p2, i2, w2 in acc[i + 1:]:
                    if not (w1 or w2):
                        continue
                    if p1 == p2:
                        continue
                    if self._concurrent(p1, i1, p2, i2):
                        kind = "write-write" if (w1 and w2) else "read-write"
                        out.add(make_race_key(
                            kind, word,
                            (p1, i1, "write" if w1 else "read"),
                            (p2, i2, "write" if w2 else "read")))
        return out
