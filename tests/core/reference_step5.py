"""Step 5 of the detector as the paper states it, one bit at a time.

:class:`ReferenceStep5Detector` is the production :class:`RaceDetector`
with step 5 replaced by its literal form: every bitmap comparison is
charged on its own, an absent bitmap is an empty :class:`Bitmap`, the
common bits come from ``Bitmap.intersection_bits`` and every reported word
builds its report — and both of its :class:`IntervalRef` — by keyword.
Production builds per comparison what is the same for every word of the
comparison, shares each interval ref over the slice and charges a call's
comparisons in one advance;
``tests/core/test_step5_matches_reference.py`` holds it to this spec.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.bitmap import Bitmap
from repro.core.checklist import ACCESS_COMBINATIONS, Row
from repro.core.detector import RaceDetector, RefCache
from repro.core.report import IntervalRef, RaceKind, RaceReport
from repro.dsm import coordinator
from repro.dsm.interval import Interval
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory


class ReferenceStep5Detector(RaceDetector):
    """The detector with the per-bit step 5."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._empty = Bitmap(self.page_size_words)

    def _word_candidates(self, a: Interval, rows: List[Row],
                         partners: Sequence[Interval], epoch: int,
                         clock: VirtualClock, refs: RefCache
                         ) -> Tuple[int, Dict[int, List[RaceReport]]]:
        """Step 5 for interval ``a``, before the dedup: one bitmap
        comparison per set bit ``x`` of each row's access-kind masks,
        against ``partners[x]``; returns ``(comparisons, reports)``, the
        reports — one per common word — by partner bit.  The slice's ref
        cache ``refs`` goes unused: every report builds its own refs."""
        comparisons = 0
        found: Dict[int, List[RaceReport]] = {}
        for page, *masks in rows:
            for mask, (_flag, a_access, b_access, kind) in zip(
                    masks, ACCESS_COMBINATIONS):
                for x in range(mask.bit_length()):
                    if not mask >> x & 1:
                        continue
                    comparisons += 1
                    b = partners[x]
                    reports: List[RaceReport] = []
                    self._intersect(
                        reports, a, a_access, _bitmaps(a, a_access).get(page),
                        b, b_access, _bitmaps(b, b_access).get(page),
                        page, kind, epoch, clock)
                    if reports:
                        found.setdefault(x, []).extend(reports)
        return comparisons, found

    def _intersect(self, found: List[RaceReport], a: Interval, a_access: str,
                   bm_a: Optional[Bitmap], b: Interval, b_access: str,
                   bm_b: Optional[Bitmap], page: int, kind: RaceKind,
                   epoch: int, clock: VirtualClock) -> None:
        """One bitmap comparison, charged to ``clock``; absent bitmaps are
        empty (this is where §6.5's diff-derived write detection silently
        loses same-value overwrites: the diff produced no bits)."""
        clock.advance(
            self.cost_model.bitmap_compare_per_word * self.page_size_words,
            CostCategory.BITMAPS)
        bm_a = bm_a or self._empty
        bm_b = bm_b or self._empty
        for bit in bm_a.intersection_bits(bm_b):
            addr = page * self.page_size_words + bit
            found.append(RaceReport(
                kind=kind, addr=addr, symbol=self.symbol_for(addr),
                page=page, offset=bit, epoch=epoch,
                a=IntervalRef(a.pid, a.index, a_access, a.sync_label),
                b=IntervalRef(b.pid, b.index, b_access, b.sync_label)))


def _bitmaps(rec: Interval, access: str):
    return rec.write_bitmaps if access == "write" else rec.read_bitmaps


@contextlib.contextmanager
def detector_class(cls) -> Iterator[None]:
    """Every detector a coordinator role builds inside the block —
    the initial one and failover successors — is a ``cls``."""
    production = coordinator.RaceDetector
    coordinator.RaceDetector = cls
    try:
        yield
    finally:
        coordinator.RaceDetector = production


def reference_step5() -> contextlib.AbstractContextManager:
    """Run the block's simulations on :class:`ReferenceStep5Detector`."""
    return detector_class(ReferenceStep5Detector)
