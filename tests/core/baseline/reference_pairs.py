"""The concurrent-pair walk, kept as an executable spec.

This is the body ``repro.core.baseline.postmortem.concurrent_pairs`` had
until it took its pairs from the online engine's window search: every
pair of events is put to ``concurrent``, ``a`` before ``b`` in the
events' (pid, index) order — n²/2 evaluations.  The post-mortem analyzer
and the timeline must yield exactly these pairs, in this order
(``tests/core/baseline/test_hb_matches_reference.py``).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.core.baseline.postmortem import ComputationEvent
from repro.dsm.vector_clock import concurrent


def concurrent_pairs(events: Sequence[ComputationEvent]
                     ) -> Iterator[Tuple[ComputationEvent, ComputationEvent]]:
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a.pid != b.pid and concurrent(a.pid, a.index, a.vc,
                                             b.pid, b.index, b.vc):
                yield a, b
