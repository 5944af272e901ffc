"""Step 5 of the detector as the paper states it, one bit at a time.

:class:`ReferenceStep5Detector` is the production :class:`RaceDetector`
with step 5 replaced by its literal form: every bitmap comparison is
charged on its own, an absent bitmap is an empty :class:`Bitmap`, the
common bits come from ``Bitmap.intersection_bits`` and every reported word
builds its report — and both of its :class:`IntervalRef` — by keyword.
Production builds per comparison what is the same for every word of the
comparison and charges an entry's comparisons in one advance;
``tests/core/test_step5_matches_reference.py`` holds it to this spec.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple

from repro.core.bitmap import Bitmap
from repro.core.checklist import ACCESS_COMBINATIONS, CheckEntry, OverlapPage
from repro.core.detector import RaceDetector
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

    def _word_candidates(self, entry: CheckEntry, pages: List[OverlapPage],
                         epoch: int, clock: VirtualClock
                         ) -> Tuple[int, List[RaceReport]]:
        """Step 5 for one entry, before the dedup: one bitmap comparison
        per access-kind combination of ``pages``; returns ``(comparisons,
        reports)``, one report per common word."""
        a, b = entry.a, entry.b
        comparisons = 0
        found: List[RaceReport] = []
        bitmaps = {"read": (a.read_bitmaps, b.read_bitmaps),
                   "write": (a.write_bitmaps, b.write_bitmaps)}
        for ov in pages:
            page = ov.page
            for flag, a_access, b_access, kind in ACCESS_COMBINATIONS:
                if getattr(ov, flag):
                    comparisons += 1
                    self._intersect(
                        found, a, a_access, bitmaps[a_access][0].get(page),
                        b, b_access, bitmaps[b_access][1].get(page),
                        page, kind, epoch, clock)
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
