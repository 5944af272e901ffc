"""Deterministic fault injection: schedules are a pure function of the
seed and the datagram identity."""

import hashlib
import random

import pytest

from repro.net import faults
from repro.net.faults import (FaultDecision, FaultInjector, FaultPlan,
                              FaultRates, plan_from_rates)
from repro.sim.crash import unit_variate


def decisions(plan, n=200, tag="sync"):
    inj = FaultInjector(plan)
    return [inj.decide(tag, 0, 1, seq, 0, 1) for seq in range(n)]


def test_same_seed_same_schedule():
    plan = FaultPlan.uniform(loss_rate=0.2, duplicate_rate=0.1,
                             reorder_rate=0.1, seed=42)
    assert decisions(plan) == decisions(plan)


def test_schedule_is_call_order_independent():
    # Hash-derived decisions depend only on the datagram identity, not on
    # how many decisions were asked before — interleaving-proof.
    plan = FaultPlan.uniform(loss_rate=0.3, seed=9)
    inj_a, inj_b = FaultInjector(plan), FaultInjector(plan)
    forward = [inj_a.decide("t", 0, 1, seq, 0, 1) for seq in range(50)]
    backward = [inj_b.decide("t", 0, 1, seq, 0, 1)
                for seq in reversed(range(50))]
    assert forward == list(reversed(backward))


def test_different_seeds_differ():
    a = decisions(FaultPlan.uniform(loss_rate=0.3, seed=1))
    b = decisions(FaultPlan.uniform(loss_rate=0.3, seed=2))
    assert a != b


def test_retransmission_attempts_roll_fresh_dice():
    plan = FaultPlan.uniform(loss_rate=0.5, seed=3)
    inj = FaultInjector(plan)
    fates = [inj.decide("t", 0, 1, 0, 0, attempt).drop
             for attempt in range(1, 40)]
    assert True in fates and False in fates


def test_rates_are_approximately_respected():
    plan = FaultPlan.uniform(loss_rate=0.25, seed=0)
    drops = sum(d.drop for d in decisions(plan, n=2000))
    assert 0.18 < drops / 2000 < 0.32


def test_dropped_datagram_is_not_also_duplicated():
    plan = FaultPlan.uniform(loss_rate=0.5, duplicate_rate=0.9, seed=5)
    for d in decisions(plan, n=500):
        if d.drop:
            assert not d.duplicate and not d.reorder


def test_per_tag_overrides():
    plan = FaultPlan(by_tag={"bitmap_reply": FaultRates(drop=0.9)}, seed=1)
    inj = FaultInjector(plan)
    assert not any(inj.decide("lock_grant", 0, 1, s, 0, 1).drop
                   for s in range(100))
    dropped = sum(inj.decide("bitmap_reply", 0, 1, s, 0, 1).drop
                  for s in range(100))
    assert dropped > 70


def test_rate_validation():
    with pytest.raises(ValueError):
        FaultRates(drop=1.0)
    with pytest.raises(ValueError):
        FaultRates(duplicate=-0.1)


def test_plan_enabled_flag():
    assert not FaultPlan().enabled
    assert FaultPlan.uniform(loss_rate=0.01).enabled
    assert FaultPlan(by_tag={"x": FaultRates(reorder=0.5)}).enabled


def test_plan_from_rates_returns_none_when_all_zero():
    assert plan_from_rates(0.0, 0.0, 0.0, seed=7) is None
    plan = plan_from_rates(0.1, 0.0, 0.0, seed=7)
    assert plan is not None and plan.seed == 7
    assert plan.default.drop == 0.1


def _spec_decide(plan, tag, src, dst, seqno, fragment, attempt):
    """``decide`` as it was written before the variates were inlined:
    three ``unit_variate`` draws over ``kind|identity`` strings."""
    rates = plan.rates_for(tag)
    ident = f"{plan.seed}:{tag}:{src}>{dst}:{seqno}.{fragment}#{attempt}"
    if rates.drop > 0 and unit_variate("drop|" + ident) < rates.drop:
        return FaultDecision(drop=True)
    return FaultDecision(
        duplicate=(rates.duplicate > 0
                   and unit_variate("dup|" + ident) < rates.duplicate),
        reorder=(rates.reorder > 0
                 and unit_variate("ord|" + ident) < rates.reorder))


def test_decide_is_the_three_unit_variate_formula(monkeypatch):
    """Seeded sweep over the whole datagram identity and over rate
    triples with zeros in every position: the inlined draws give the
    verdict of the definition, and a zero rate hashes nothing."""
    draws, blake2b = [], hashlib.blake2b

    def counting_blake2b(data, **kwargs):
        draws.append(bytes(data))
        return blake2b(data, **kwargs)

    # (``faults.hashlib`` is the module: the spec's draws count too, so
    # ``decide``'s are read off before the spec runs.)
    monkeypatch.setattr(faults.hashlib, "blake2b", counting_blake2b)
    rng = random.Random(21)
    verdicts = set()
    for _ in range(1500):
        rates = FaultRates(*(rng.choice([0.0, 0.0, 0.05, 0.5, 0.95])
                             for _ in range(3)))
        plan = FaultPlan(default=rates, seed=rng.randrange(1 << 32),
                         by_tag={"quiet": FaultRates()})
        ident = (rng.choice(["sync", "page_reply", "bitmap_reply", "quiet",
                             "tag:with|odd#chars", "étiquette"]),
                 rng.randrange(16), rng.randrange(16), rng.randrange(10 ** 6),
                 rng.randrange(8), rng.randrange(1, 6))
        del draws[:]
        got = FaultInjector(plan).decide(*ident)
        kinds = [d.split(b"|", 1)[0] for d in draws]
        drawn = set(kinds)
        assert got == _spec_decide(plan, *ident), (rates, ident)
        zero = {kind for kind, rate in zip(
            (b"drop", b"dup", b"ord"),
            (rates.drop, rates.duplicate, rates.reorder)) if rate == 0}
        if ident[0] == "quiet":
            zero = {b"drop", b"dup", b"ord"}
        assert not drawn & zero, (rates, ident, drawn)
        assert len(kinds) == len(drawn) <= 3
        verdicts.add(got)
    assert len(verdicts) == 5  # clean, drop, dup, reorder, dup+reorder


def test_common_verdicts_are_shared_instances():
    inj = FaultInjector(FaultPlan.uniform(loss_rate=0.3, seed=4))
    fates = [inj.decide("t", 0, 1, seq) for seq in range(100)]
    assert len({id(f) for f in fates if f.drop}) == 1
    assert len({id(f) for f in fates if f == FaultDecision()}) == 1
    quiet = FaultInjector(FaultPlan(by_tag={"x": FaultRates(drop=0.5)}))
    assert quiet.decide("other", 0, 1, 0) is quiet.decide("other", 0, 1, 1)
