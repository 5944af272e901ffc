"""Deterministic datagram fault injection.

The paper's prototype ran over raw UDP and deferred loss and fragmentation
to a "modified communication layer" that never shipped (§5.3).  This module
supplies the fault model half of that layer: a :class:`FaultPlan` describes
per-tag drop/duplicate/reorder probabilities, and a :class:`FaultInjector`
turns the plan into concrete per-datagram decisions.

Decisions are *hash-derived*, not drawn from a stateful RNG: each decision
is a pure function of ``(seed, tag, src, dst, seqno, fragment, attempt)``.
That makes the fault schedule a property of the message's identity alone —
two runs with the same seed see the *same* drops on the *same* datagrams
regardless of how sends from different processes interleave, which is what
replay-based debugging (Ronsse & De Bosschere, PAPERS.md) needs from a
fault model.  Seqnos are per-transport (see :mod:`repro.net.message`), so
back-to-back runs in one interpreter assign identical message identities.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class FaultRates:
    """Per-datagram fault probabilities for one message class.

    Attributes:
        drop: Probability a datagram is lost in flight.
        duplicate: Probability the network delivers a second copy (the
            receiver suppresses it via the channel seqno).
        reorder: Probability a datagram is delivered late relative to its
            successors (modeled as extra arrival delay).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} rate must be in [0, 1): {rate}")

    @property
    def any(self) -> bool:
        return self.drop > 0 or self.duplicate > 0 or self.reorder > 0


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one datagram transmission attempt."""

    drop: bool = False
    duplicate: bool = False
    reorder: bool = False


#: The two verdicts that need no fresh instance (decisions are frozen).
_DELIVERED, _DROPPED = FaultDecision(), FaultDecision(drop=True)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one run.

    Attributes:
        default: Rates applied to every message tag without an override.
        by_tag: Per-tag overrides (e.g. drop only ``"bitmap_reply"`` to
            exercise the detector's page-granularity degradation).
        seed: Schedule seed; the entire fault schedule is a deterministic
            function of it (``--fault-seed`` on the CLI).
        reorder_delay_cycles: Extra arrival latency a reordered datagram
            suffers (it went the long way round).
    """

    default: FaultRates = field(default_factory=FaultRates)
    by_tag: Dict[str, FaultRates] = field(default_factory=dict)
    seed: int = 0
    reorder_delay_cycles: float = 9_000.0

    @classmethod
    def uniform(cls, loss_rate: float = 0.0, duplicate_rate: float = 0.0,
                reorder_rate: float = 0.0, seed: int = 0) -> "FaultPlan":
        """A plan applying the same rates to every message tag."""
        return cls(default=FaultRates(drop=loss_rate, duplicate=duplicate_rate,
                                      reorder=reorder_rate), seed=seed)

    def rates_for(self, tag: str) -> FaultRates:
        return self.by_tag.get(tag, self.default)

    @property
    def enabled(self) -> bool:
        """True if any message class can experience any fault."""
        return self.default.any or any(r.any for r in self.by_tag.values())


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-datagram decisions."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def decide(self, tag: str, src: int, dst: int, seqno: int,
               fragment: int = 0, attempt: int = 1) -> FaultDecision:
        """Fate of one transmission attempt of one datagram.

        The decision depends only on the plan seed and the datagram's
        identity, so retransmissions of the same fragment (``attempt`` >
        1) roll fresh — but reproducible — dice.
        """
        rates = self.plan.rates_for(tag)
        if not rates.any:
            return _DELIVERED
        # ``sim.crash.unit_variate("kind|identity") < rate`` in line, per kind.
        key = (f"|{self.plan.seed}:{tag}:{src}>{dst}"
               f":{seqno}.{fragment}#{attempt}").encode("utf-8")
        drop, duplicate, reorder = [
            rate > 0 and int.from_bytes(hashlib.blake2b(
                kind + key, digest_size=8).digest(), "big") / 2.0 ** 64 < rate
            for kind, rate in zip((b"drop", b"dup", b"ord"), (
                rates.drop, rates.duplicate, rates.reorder))]
        if drop:
            # A dropped datagram never reaches the receiver; duplication
            # and reordering are moot.
            return _DROPPED
        if not (duplicate or reorder):
            return _DELIVERED
        return FaultDecision(duplicate=duplicate, reorder=reorder)


def plan_from_rates(loss_rate: float, duplicate_rate: float,
                    reorder_rate: float, seed: int) -> Optional[FaultPlan]:
    """Build a uniform plan from scalar config fields; ``None`` when every
    rate is zero (the transport then runs bare, with zero overhead)."""
    if loss_rate <= 0 and duplicate_rate <= 0 and reorder_rate <= 0:
        return None
    return FaultPlan.uniform(loss_rate=loss_rate,
                             duplicate_rate=duplicate_rate,
                             reorder_rate=reorder_rate, seed=seed)
