"""Per-process virtual clocks.

Each simulated process carries a :class:`VirtualClock` measured in cycles.
Only one Python thread executes at a time, but clocks advance independently,
so the simulation models genuinely parallel execution: two processes that
each burn 1M cycles between barriers cost 1M cycles of *parallel* time, not
2M.  Synchronization points reconcile clocks (a lock grant carries the
releaser's time forward to the acquirer; a barrier advances everyone to the
maximum arrival time).
"""

from __future__ import annotations

from repro.sim.costmodel import CostCategory, CostLedger


class VirtualClock:
    """Cycle-count clock plus a per-category cost ledger.

    The ledger records *where* the cycles went (base work vs. each
    race-detection overhead category) so that the harness can reconstruct
    the paper's Figure 3 without running a separate uninstrumented baseline:
    within the model, base time is exactly total time minus tagged overhead.
    """

    __slots__ = ("now", "ledger", "_slots")

    def __init__(self) -> None:
        #: Current virtual time in cycles.
        self.now: float = 0.0
        self.ledger = CostLedger()
        self._slots = self.ledger.slots

    def advance(self, cycles: float, category: CostCategory = CostCategory.BASE) -> float:
        """Advance the clock by ``cycles``, attributing them to ``category``.

        Returns the new time.  Negative advances are illegal.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance clock by negative cycles ({cycles})")
        self.now += cycles
        self._slots[category.slot] += cycles
        return self.now

    def advance_split(self, total: float, parts) -> float:
        """Advance the clock by a pre-summed ``total`` in one step while
        attributing the charge per category via ``parts`` — an iterable of
        ``(category, cycles)`` pairs whose cycles sum to ``total``.

        One call in place of one ``advance`` per part.  Because every
        cost-model constant is a dyadic rational far below 2**52, float
        addition over them is exact and associative here, so ``now`` and
        every per-category ledger total come out bit-identical to the
        sequential-advance chain.  (``Env`` applies the same fusion to
        ``now`` and ``ledger.slots`` in line, without the call.)
        """
        if total < 0:
            raise ValueError(f"cannot advance clock by negative cycles ({total})")
        self.now += total
        slots = self._slots
        for category, cycles in parts:
            if cycles < 0:
                raise ValueError(f"negative charge: {cycles}")
            slots[category.slot] += cycles
        return self.now

    def wait_until(self, t: float) -> float:
        """Move the clock forward to absolute time ``t`` if ``t`` is later.

        Idle waiting (e.g. blocked on a lock) is *not* attributed to any
        overhead category: the paper's overhead decomposition charges only
        work, and idle time shows up implicitly through the final clock
        value.  Returns the new time.
        """
        if t > self.now:
            self.now = t
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.0f})"
