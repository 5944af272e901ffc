"""Two-run racy-access attribution (§6.1).

Run 1: detect races on a recording system.  Run 2: re-execute under the
recorded synchronization order with a *watch* on the racy addresses; every
access to a watched word reports its source *site* (the program-counter
analogue our Env API carries via the optional ``site=`` argument).  Because
the replay enforces the recorded grant order, the races recur exactly, and
the watch gathers sites only for the conflicted words — the paper's point
about keeping both runtime overhead and storage negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set, Tuple

from repro.core.report import RaceReport
from repro.dsm.config import DsmConfig
from repro.dsm.cvm import CVM
from repro.replay.trace import SyncTraceEnforcer, SyncTraceRecorder


@dataclass
class SiteHit:
    """One watched access observed during the replay run."""

    pid: int
    interval_index: int
    site: str
    is_write: bool


@dataclass
class AttributionReport:
    """Races plus, per racy address, the access sites that touched it."""

    races: List[RaceReport]
    #: addr -> hits collected in the replay run.
    sites: Dict[int, List[SiteHit]]
    symbol_of: Dict[int, str]
    replay_grants: int
    log_bytes: int

    def sites_for_symbol(self, symbol: str) -> Set[str]:
        """All source sites that touched any address resolving to
        ``symbol`` (or an offset into it)."""
        out: Set[str] = set()
        for addr, hits in self.sites.items():
            name = self.symbol_of.get(addr, "")
            if name == symbol or name.startswith(symbol + "+"):
                out.update(h.site for h in hits)
        return out


def attribute_races(app: Callable[..., Any], params: Any,
                    config: DsmConfig,
                    replay_config: DsmConfig = None) -> AttributionReport:
    """Run the two-phase §6.1 pipeline and return the attribution report.

    ``replay_config`` defaults to ``config``; pass a variant (e.g. a
    different scheduling seed) to demonstrate that order enforcement — not
    scheduler determinism — is what makes the races recur.
    """
    # First run: detect and record.  Only ``lock_order`` is attached (no
    # arrival or delivery verification), so the replay may use another seed.
    recorder = SyncTraceRecorder()
    system1 = CVM(config)
    system1.lock_order = recorder
    result1 = system1.run(app, params)

    racy_addrs = sorted({r.addr for r in result1.races})
    symbol_of = {addr: system1.segment.symbol_for(addr)
                 for addr in racy_addrs}

    # Second run: enforce the order, watch only the racy words.
    enforcer = SyncTraceEnforcer(recorder.trace)
    system2 = CVM(replay_config or config)
    system2.lock_order = enforcer
    watch: Dict[int, List[Tuple]] = {addr: [] for addr in racy_addrs}
    system2.pc_watch = watch
    system2.run(app, params)

    sites = {addr: [SiteHit(pid, idx, site, is_write)
                    for (pid, idx, site, is_write) in hits]
             for addr, hits in watch.items()}
    return AttributionReport(
        races=result1.races,
        sites=sites,
        symbol_of=symbol_of,
        replay_grants=enforcer.grants_replayed,
        log_bytes=recorder.trace.log_bytes,
    )
