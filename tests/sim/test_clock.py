"""Virtual clocks and cost ledgers."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.costmodel import (OVERHEAD_CATEGORIES, CostCategory,
                                 CostLedger, CostModel)


def test_advance_accumulates_and_tags():
    clock = VirtualClock()
    clock.advance(100)
    clock.advance(50, CostCategory.PROC_CALL)
    assert clock.now == 150
    assert clock.ledger.base == 100
    assert clock.ledger.totals[CostCategory.PROC_CALL] == 50
    assert clock.ledger.overhead == 50
    assert clock.ledger.total == 150


def test_negative_advance_rejected():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_wait_until_moves_forward_only():
    clock = VirtualClock()
    clock.advance(100)
    assert clock.wait_until(80) == 100   # no time travel
    assert clock.wait_until(250) == 250
    # Idle time is not charged to any category.
    assert clock.ledger.total == 100


def test_ledger_merge():
    a, b = CostLedger(), CostLedger()
    a.charge(CostCategory.BASE, 10)
    b.charge(CostCategory.BASE, 5)
    b.charge(CostCategory.BITMAPS, 3)
    a.merge(b)
    assert a.base == 15
    assert a.totals[CostCategory.BITMAPS] == 3


def test_breakdown_relative_to_base():
    ledger = CostLedger()
    ledger.charge(CostCategory.BASE, 200)
    ledger.charge(CostCategory.ACCESS_CHECK, 50)
    bd = ledger.breakdown()
    assert bd["access_check"] == pytest.approx(0.25)
    assert sum(bd.values()) == pytest.approx(0.25)


def test_breakdown_with_zero_base():
    ledger = CostLedger()
    ledger.charge(CostCategory.BITMAPS, 50)
    assert all(v == 0.0 for v in ledger.breakdown().values())


def test_overhead_categories_cover_everything_but_base():
    # RETRANSMIT (network robustness), RECOVERY (crash tolerance),
    # FAILOVER (coordinator election/state migration), SHARDED_DETECT
    # (detection-sharding protocol traffic), RECORD (two-phase
    # record-mode trace capture) and COARSE_FILTER (two-level filter
    # digest carriage and granule checks) are overhead outside the
    # paper's Figure 3 taxonomy: overhead, but deliberately not
    # Figure 3 categories (keeps regenerated tables byte-identical with
    # faults, crashes, failover, sharding, record mode and the filter
    # off).
    assert set(OVERHEAD_CATEGORIES) == \
        set(CostCategory) - {CostCategory.BASE, CostCategory.RETRANSMIT,
                             CostCategory.RECOVERY, CostCategory.FAILOVER,
                             CostCategory.SHARDED_DETECT,
                             CostCategory.RECORD,
                             CostCategory.COARSE_FILTER}
    for cat in (CostCategory.RETRANSMIT, CostCategory.RECOVERY,
                CostCategory.FAILOVER, CostCategory.SHARDED_DETECT,
                CostCategory.RECORD, CostCategory.COARSE_FILTER):
        assert cat not in OVERHEAD_CATEGORIES


def test_cost_model_conversions():
    cm = CostModel(clock_hz=100.0)
    assert cm.seconds(250.0) == pytest.approx(2.5)


def test_negative_charge_rejected():
    ledger = CostLedger()
    with pytest.raises(ValueError):
        ledger.charge(CostCategory.BASE, -5)


# ---------------------------------------------------------------------- #
# The slot-indexed ledger behind the ``totals`` view.
# ---------------------------------------------------------------------- #
def test_categories_carry_slot_and_paper_flag():
    assert [cat.slot for cat in CostCategory] == \
        list(range(len(CostCategory)))
    assert [cat.value for cat in OVERHEAD_CATEGORIES] == \
        ["cvm_mods", "proc_call", "access_check", "intervals", "bitmaps"]
    assert OVERHEAD_CATEGORIES == \
        tuple(cat for cat in CostCategory if cat.paper)
    assert not CostCategory.BASE.paper
    assert CostCategory("retransmit") is CostCategory.RETRANSMIT


def test_totals_lists_every_category_in_enum_order():
    ledger = CostLedger()
    assert list(ledger.totals) == list(CostCategory)
    assert set(ledger.totals.values()) == {0.0}
    ledger.charge(CostCategory.RECORD, 2.5)
    assert list(ledger.totals) == list(CostCategory)
    assert ledger.totals[CostCategory.RECORD] == 2.5


def test_advance_split_equals_the_sequential_chain():
    parts = ((CostCategory.BASE, 1.0), (CostCategory.PROC_CALL, 46.0),
             (CostCategory.ACCESS_CHECK, 27.0))
    fused, chained = VirtualClock(), VirtualClock()
    for clock in (fused, chained):
        clock.advance(9_000.5, CostCategory.CVM_MODS)
    for _ in range(1000):
        fused.advance_split(74.0, parts)
        for cat, cycles in parts:
            chained.advance(cycles, cat)
    assert fused.now == chained.now
    assert fused.ledger.totals == chained.ledger.totals
    with pytest.raises(ValueError):
        fused.advance_split(-1.0, parts)
    with pytest.raises(ValueError):
        fused.advance_split(1.0, ((CostCategory.BASE, -1.0),))


def test_totals_survive_merge_and_merge_keeps_the_clock_attached():
    a, b = VirtualClock(), VirtualClock()
    a.advance(10, CostCategory.BASE)
    b.advance(5, CostCategory.BASE)
    b.advance(3, CostCategory.FAILOVER)
    a.ledger.merge(b.ledger)
    assert a.ledger.totals[CostCategory.BASE] == 15
    assert a.ledger.totals[CostCategory.FAILOVER] == 3
    assert b.ledger.totals[CostCategory.BASE] == 5
    a.advance(1, CostCategory.FAILOVER)   # still the ledger the clock feeds
    assert a.ledger.totals[CostCategory.FAILOVER] == 4


def test_totals_is_a_snapshot():
    ledger = CostLedger()
    ledger.charge(CostCategory.BITMAPS, 7)
    view = ledger.totals
    view[CostCategory.BITMAPS] = 99
    del view[CostCategory.BASE]
    assert ledger.totals[CostCategory.BITMAPS] == 7
    assert list(ledger.totals) == list(CostCategory)
    assert ledger.breakdown()["bitmaps"] == 0.0   # base is still zero
