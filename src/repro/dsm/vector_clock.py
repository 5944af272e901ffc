"""Version vectors (vector timestamps) over process interval indices.

Every interval carries a vector timestamp: entry ``p`` is the index of the
latest interval of process ``p`` that the owner had *seen* when the interval
began (its own entry is its own index).  The happens-before-1 relation of
the paper (§3.1) is exactly the partial order these vectors induce, and —
the paper's key point — deciding whether two intervals are ordered is a
constant-time comparison (two integer compares, see :func:`precedes`).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


class VectorClock:
    """An immutable-by-convention vector of interval indices.

    Mutation is confined to the owning node via :meth:`observe` and
    :meth:`tick`; intervals snapshot with :meth:`copy`, after which the
    snapshot must not change.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        self.entries: List[int] = list(entries)
        if any(e < 0 for e in self.entries):
            raise ValueError("vector clock entries must be non-negative")

    @classmethod
    def zero(cls, nprocs: int) -> "VectorClock":
        return cls([0] * nprocs)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, pid: int) -> int:
        return self.entries[pid]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(self.entries))

    def __repr__(self) -> str:
        return f"VC{tuple(self.entries)}"

    def copy(self) -> "VectorClock":
        # Entries were validated when this clock was built and only ever
        # grow (tick, observe): the snapshot skips the constructor's scan.
        clone = VectorClock.__new__(VectorClock)
        clone.entries = self.entries[:]
        return clone

    def tick(self, pid: int) -> int:
        """Advance the owner's own entry (new interval); returns the new
        interval index."""
        self.entries[pid] += 1
        return self.entries[pid]

    def observe(self, other: "VectorClock") -> None:
        """Element-wise max merge: the owner has now seen everything the
        other clock had seen.  Lengths must match."""
        if len(other) != len(self.entries):
            raise ValueError("vector clock width mismatch")
        for i, v in enumerate(other.entries):
            if v > self.entries[i]:
                self.entries[i] = v

    def dominates(self, other: "VectorClock") -> bool:
        """True if every entry is >= the other's (other happened-before or
        equals this)."""
        return all(a >= b for a, b in zip(self.entries, other.entries))


def precedes(owner_a: int, index_a: int, vc_b: VectorClock) -> bool:
    """Does interval ``index_a`` of process ``owner_a`` happen-before the
    interval whose vector is ``vc_b``?

    This is the constant-time check the paper leans on: interval
    :math:`\\sigma_{a}^{i}` precedes :math:`\\sigma_{b}^{j}` iff
    :math:`V_b[a] \\ge i` — i.e. ``b`` had already seen ``a``'s interval when
    it began.
    """
    return vc_b[owner_a] >= index_a


def concurrent(owner_a: int, index_a: int, vc_a: VectorClock,
               owner_b: int, index_b: int, vc_b: VectorClock) -> bool:
    """Are two intervals concurrent (unordered by happens-before-1)?

    Two integer comparisons, as promised in the paper (§4, step 2).
    Intervals of the same process are never concurrent (program order).
    """
    if owner_a == owner_b:
        return False
    return not precedes(owner_a, index_a, vc_b) and \
        not precedes(owner_b, index_b, vc_a)
