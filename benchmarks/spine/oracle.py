"""Online reports vs the independent happens-before oracle.

``RaceReport.key()`` is ``(kind, granularity, verdict, addr, side, side)``
with sorted ``(pid, interval index, access)`` sides; the oracle's
``RaceKey`` is ``(kind string, addr, (side, side))``.  Only word-granular
confirmed races have an oracle counterpart: a page-granularity or
unverifiable report maps to a key no oracle run produces, so it shows up
as a phantom instead of vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Set, Tuple

from repro.core.baseline import HappensBeforeDetector

RaceKey = Tuple[Any, ...]


def online_keys(result: Any) -> Set[RaceKey]:
    keys: Set[RaceKey] = set()
    for report in result.races:
        kind, granularity, verdict, addr, side_a, side_b = report.key()
        if granularity == "word" and verdict == "race":
            keys.add((kind.value, addr, (side_a, side_b)))
        else:
            keys.add((kind.value, addr, (side_a, side_b),
                      granularity, verdict))
    return keys


def oracle_keys(system: Any, result: Any) -> Set[RaceKey]:
    return HappensBeforeDetector(system.store.vc_log).races(
        result.access_trace)


@dataclass
class Agreement:
    """Key-set comparison summed over a workload's oracle cells."""

    online: int = 0
    oracle: int = 0
    common: int = 0
    missed: List[Tuple[str, RaceKey]] = field(default_factory=list)
    phantom: List[Tuple[str, RaceKey]] = field(default_factory=list)

    def add(self, label: str, online: Set[RaceKey],
            oracle: Set[RaceKey]) -> None:
        self.online += len(online)
        self.oracle += len(oracle)
        self.common += len(online & oracle)
        self.missed += [(label, key) for key in sorted(oracle - online)]
        self.phantom += [(label, key) for key in sorted(online - oracle,
                                                        key=repr)]

    @property
    def recall(self) -> float:
        return self.common / self.oracle if self.oracle else 1.0

    @property
    def precision(self) -> float:
        return self.common / self.online if self.online else 1.0

    def describe(self, limit: int = 10) -> List[str]:
        """Lines naming the disagreeing keys (empty when both are 1)."""
        lines = []
        for title, keys in (("missed", self.missed),
                            ("phantom", self.phantom)):
            if keys:
                lines.append(f"oracle: {len(keys)} {title} key(s)")
                lines += [f"  {title} [{label}] {key}"
                          for label, key in keys[:limit]]
        return lines
