"""Virtual-time cost model.

The paper reports overheads in five categories (Figure 3):

* ``CVM Mods`` — data-structure setup in the modified CVM plus the extra
  bandwidth consumed by read notices,
* ``Proc Call`` — the procedure-call overhead of the (non-inlined) ATOM
  instrumentation stubs,
* ``Access Check`` — time inside the analysis routine deciding whether an
  access is shared and setting the bitmap bit,
* ``Intervals`` — the concurrent-interval comparison algorithm,
* ``Bitmaps`` — the extra barrier round that retrieves bitmaps plus the
  bitmap comparisons themselves.

Everything else (application compute, base DSM protocol work, base
communication) is *base* time.  Slowdown is then
``(base + sum(overheads)) / base``, exactly how the paper's Figure 3 relates
to its Table 1 slowdown column.

The default cycle costs below are calibrated so that the four applications
land in the paper's reported slowdown band (≈1.8–2.6× at 8 processors) while
keeping the *relative* weight of the categories (instrumentation ≈ 68% of
overhead, interval/bitmap comparisons 3rd/4th).  Absolute cycle values are
not meaningful — only ratios are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List


class CostCategory(enum.Enum):
    """Tag attached to every virtual-time charge.

    A member is declared as ``value`` or ``(value, paper)``.  ``paper``
    marks the paper's Figure 3 categories.  The robustness and engine
    categories added since are overhead too, but ``paper=False`` keeps
    them out of :data:`OVERHEAD_CATEGORIES`, so every table and figure
    regenerated with their feature off (the default) stays byte-identical.
    ``slot`` is the member's index in :attr:`CostLedger.slots`.
    """

    def __new__(cls, value: str, paper: bool = False):
        member = object.__new__(cls)
        member._value_ = value
        member.slot = len(cls.__members__)
        member.paper = paper
        return member

    #: Application computation and base (unmodified-CVM) protocol work.
    BASE = "base"
    #: Race-detection data-structure management + read-notice bandwidth.
    CVM_MODS = ("cvm_mods", True)
    #: Procedure-call overhead of instrumentation stubs.
    PROC_CALL = ("proc_call", True)
    #: Shared/private classification + bitmap bit set.
    ACCESS_CHECK = ("access_check", True)
    #: Concurrent-interval comparison at barriers.
    INTERVALS = ("intervals", True)
    #: Extra bitmap round + bitmap comparison.
    BITMAPS = ("bitmaps", True)
    #: Retransmissions, retry timeouts and acks of the reliable channel
    #: (:mod:`repro.net.reliable`) on a lossy network; the prototype ran
    #: over bare UDP.
    RETRANSMIT = "retransmit"
    #: Crash-fault tolerance: barrier checkpoints, death-declaration
    #: timeouts, recovery traffic, checkpoint restores and the deterministic
    #: re-execution of lost work (:mod:`repro.sim.crash`,
    #: :mod:`repro.dsm.checkpoint`).
    RECOVERY = "recovery"
    #: Master failover: coordinator-state journaling at barriers, the
    #: election round after the coordinator dies, detection-state migration
    #: to the new coordinator and the re-solicitation of in-flight interval
    #: metadata from survivors (:mod:`repro.dsm.coordinator`).
    FAILOVER = "failover"
    #: Sharded epoch detection (``--sharded-detection``): the shard-
    #: assignment broadcast, partner interval-record fetches, owner-side
    #: bitmap retrievals and the candidate-report tree-reduce back to the
    #: coordinator.  The *comparison work itself* stays in the paper's
    #: INTERVALS/BITMAPS categories (it merely moves to the shard owners'
    #: clocks); only the distribution protocol's traffic is priced here.
    SHARDED_DETECT = "sharded_detect"
    #: Two-phase record mode (``--mode record``): appending one
    #: synchronization-order entry (lock grant, barrier arrival, message
    #: delivery) to the in-memory log and flushing the hash-framed trace
    #: file at the end of the run.  This is the *online* cost of the
    #: record/detect-offline pipeline (Ronsse & De Bosschere's
    #: non-intrusive record phase); the detector's full cost moves to the
    #: offline replay run.
    RECORD = "record"
    #: Two-level detection filter (``--coarse-filter``): the coarse-digest
    #: bytes piggy-backed on interval records and the granule pre-checks
    #: that prove most page-overlapping pairs race-free before any bitmap
    #: is fetched.  The savings land in the BITMAPS (centralized) and
    #: SHARDED_DETECT (shard owners) categories as *fewer* fetches and
    #: comparisons; the filter's own cost is priced here.
    COARSE_FILTER = "coarse_filter"


#: The paper's race-detection overhead categories, in Figure 3 order.  The
#: ``paper=False`` ones are reported separately (see docs/robustness.md).
OVERHEAD_CATEGORIES = tuple(cat for cat in CostCategory if cat.paper)


@dataclass
class CostModel:
    """Cycle costs used to advance virtual clocks.

    All values are in CPU cycles of a simulated 250 MHz processor (the
    paper's DECstation Alphas), except bandwidth terms which are in
    cycles/byte.
    """

    #: Clock rate used to convert cycles to (virtual) seconds.
    clock_hz: float = 250e6

    # ------------------------------------------------------------------ #
    # Application-side costs (charged per executed operation).
    # ------------------------------------------------------------------ #
    #: One unit of application compute (a handful of ALU ops).
    compute_unit: float = 4.0
    #: A load or store that was *not* instrumented (stack/static/library).
    plain_access: float = 1.0
    #: Procedure call + return of the instrumentation stub (ATOM cannot
    #: inline, §5.1).
    proc_call: float = 46.0
    #: Shared/private classification (segment bounds compare) per call.
    access_check_private: float = 18.0
    #: Classification plus setting the per-page bitmap bit.
    access_check_shared: float = 27.0

    # ------------------------------------------------------------------ #
    # Communication costs.
    # ------------------------------------------------------------------ #
    #: Fixed per-message latency (software + wire), in cycles.
    msg_latency: float = 9_000.0
    #: Transfer cost per byte.  The raw 155 Mbit ATM figure would be ~13
    #: cycles/byte; we calibrate lower because the simulated inputs are
    #: scaled down relative to the paper's (smaller compute per page
    #: moved), which would otherwise overweight communication.
    cycles_per_byte: float = 3.0

    # ------------------------------------------------------------------ #
    # DSM protocol costs.
    # ------------------------------------------------------------------ #
    #: Handling a page fault (signal + protocol bookkeeping), excl. message.
    page_fault: float = 3_500.0
    #: Write fault on a locally-valid page (protection upgrade only).
    soft_fault: float = 600.0
    #: Creating a twin (multi-writer protocol), per page word.
    twin_per_word: float = 1.0
    #: Diff creation/application, per page word examined.
    diff_per_word: float = 1.5
    #: Per-interval record keeping at acquire/release (unmodified CVM).
    interval_bookkeeping: float = 400.0

    # ------------------------------------------------------------------ #
    # Race-detection costs (the paper's modifications).
    # ------------------------------------------------------------------ #
    #: Setting up per-interval detection structures (bitmap registration,
    #: read-notice lists) at interval creation.  Charged to CVM_MODS.
    detect_interval_setup: float = 900.0
    #: Per read-notice byte appended to synchronization messages; the
    #: bandwidth cost itself is charged via cycles_per_byte to CVM_MODS.
    #: Version-vector comparison of one interval pair (two integer
    #: compares + loop overhead).  Charged to INTERVALS.
    interval_compare: float = 2.0
    #: Page-list overlap check per page pair examined.  Charged to INTERVALS.
    page_overlap_check: float = 0.5
    #: Comparing one pair of word bitmaps (constant in page size; charged
    #: per word for generality).  Charged to BITMAPS.
    bitmap_compare_per_word: float = 0.5

    # ------------------------------------------------------------------ #
    # Crash tolerance costs (all charged to RECOVERY; zero traffic on the
    # default configuration — crashes and checkpointing disabled).
    # ------------------------------------------------------------------ #
    #: Serializing one checkpoint byte to local stable storage at a
    #: barrier departure.
    checkpoint_write_per_byte: float = 0.5
    #: Reading one checkpoint byte back during recovery.
    checkpoint_restore_per_byte: float = 0.5
    #: Fixed restart cost of a crashed node (process relaunch, DSM rejoin
    #: handshake), excluding restore and re-execution.
    crash_restart: float = 30_000.0

    # ------------------------------------------------------------------ #
    # Record-mode costs (all charged to RECORD; zero on the default
    # configuration — two-phase mode disabled).
    # ------------------------------------------------------------------ #
    #: Appending one synchronization-order entry (a lock grant, a barrier
    #: arrival, or a delivered sync message) to the in-memory record log:
    #: a buffered append, far cheaper than any detection work.
    record_entry: float = 12.0
    #: Serializing one byte of the hash-framed trace file at the end of a
    #: record run (same storage model as checkpoint writes).
    record_flush_per_byte: float = 0.5

    # ------------------------------------------------------------------ #
    # Two-level filter costs (all charged to COARSE_FILTER; zero with the
    # filter disabled).  Digest *carriage* on synchronization messages is
    # priced via cycles_per_byte against the digest wire size.
    # ------------------------------------------------------------------ #
    #: One granule pre-check of a check-list combination: two 64-bit mask
    #: ANDs (granule mask, then Bloom on a granule collision) plus the
    #: digest table lookups.  Folds in the amortized per-digest finalize
    #: (a handful of shifts over the incrementally-maintained mask).
    granule_check: float = 4.0

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to virtual seconds."""
        return cycles / self.clock_hz


class CostLedger:
    """Per-process accumulator of charges, one float per
    :class:`CostCategory` at index ``category.slot`` of :attr:`slots`.

    :class:`~repro.sim.clock.VirtualClock` and the ``Env`` access engine
    add to ``slots`` directly on the per-access path; everything else goes
    through :meth:`charge` and reads :attr:`totals`.
    """

    __slots__ = ("slots",)

    def __init__(self) -> None:
        self.slots: List[float] = [0.0] * len(CostCategory)

    def charge(self, category: CostCategory, cycles: float) -> None:
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        self.slots[category.slot] += cycles

    @property
    def totals(self) -> Dict[CostCategory, float]:
        """Charges by category, in enum order — a snapshot: writing to the
        returned dict does not move the ledger."""
        return dict(zip(CostCategory, self.slots))

    @property
    def base(self) -> float:
        return self.slots[CostCategory.BASE.slot]

    @property
    def overhead(self) -> float:
        return sum(self.slots[cat.slot] for cat in OVERHEAD_CATEGORIES)

    @property
    def total(self) -> float:
        return self.base + self.overhead

    def merge(self, other: "CostLedger") -> None:
        """Add another ledger's charges into this one (used for system-wide
        aggregation by the harness)."""
        slots = self.slots
        for slot, cycles in enumerate(other.slots):
            slots[slot] += cycles

    def breakdown(self) -> Dict[str, float]:
        """Overhead per category as a fraction of *base* time.

        This is exactly the quantity plotted in the paper's Figure 3
        ("overhead added ... relative to the running time of the unaltered
        binary").
        """
        base = self.base
        if base <= 0:
            return {cat.value: 0.0 for cat in OVERHEAD_CATEGORIES}
        return {cat.value: self.slots[cat.slot] / base
                for cat in OVERHEAD_CATEGORIES}
