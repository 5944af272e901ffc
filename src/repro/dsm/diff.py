"""Twin/diff machinery for the multi-writer LRC protocol.

In CVM's multi-writer protocol, a writer twins a page at its first write
after gaining write permission; at release time the modified page is
compared word-by-word against the twin and the differences are encoded as a
*diff*.  Faulting processes fetch and apply the diffs of every writer whose
interval happens-before their current view.

§6.5 of the paper observes that these diffs double as write-access records:
a system on the multi-writer protocol can skip store instrumentation and
derive write bitmaps from diffs — at the price of missing races in which a
value is overwritten with itself (the diff is empty there).  That trade-off
is reproduced by :func:`diff_to_bitmap` plus the
``diff_write_detection`` configuration flag.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.bitmap import Bitmap

#: A diff is a list of (word offset, new value) pairs, offset-sorted.
Diff = List[Tuple[int, int]]


def create_diff(twin: Sequence[int], current: Sequence[int]) -> Diff:
    """Word-by-word comparison of a page against its twin."""
    if len(twin) != len(current):
        raise ValueError("twin/page length mismatch")
    return [(i, cur) for i, (old, cur) in enumerate(zip(twin, current))
            if old != cur]


def apply_diff(data: List[int], diff: Diff) -> None:
    """Apply a diff to a page copy, in place."""
    n = len(data)
    for offset, value in diff:
        if not 0 <= offset < n:
            raise ValueError(f"diff offset {offset} outside page of {n} words")
        data[offset] = value


def diff_to_bitmap(diff: Diff, page_size_words: int) -> Bitmap:
    """Write bitmap derived from a diff (§6.5 write-detection mode).

    Words overwritten with an identical value do not appear in the diff and
    therefore are *not* set — the weaker guarantee the paper describes.
    """
    bm = Bitmap(page_size_words)
    for offset, _value in diff:
        bm.set(offset)
    return bm
