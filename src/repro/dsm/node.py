"""Per-process DSM node state.

A :class:`Node` owns everything one simulated process keeps locally: its
vector clock, the interval currently being built, its page copies, and its
access counters.  Interval lifecycle (open at every acquire/release, close
at the next one) lives here; what *happens* at faults and synchronization is
the protocol's and the CVM facade's business.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dsm.config import DsmConfig
from repro.dsm.interval import Interval
from repro.dsm.page import PageCopy
from repro.dsm.vector_clock import VectorClock
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostCategory


class IntervalStore:
    """All closed intervals in the system, keyed by (pid, index).

    In real CVM each process stores records for the intervals it has seen;
    making the store global (with message accounting at every transfer)
    keeps the simulation simple without changing what any process is
    *entitled* to look at — the vector clocks still gate that.
    Epoch-scoped views feed the detector; :meth:`discard_epoch` is the
    garbage collection the paper performs once races have been checked
    (§6.4: "only discards trace information when it has been checked").

    Every record in the store is closed, hence sealed (see
    :class:`~repro.dsm.interval.Interval`): :meth:`records` selects what a
    synchronization message carries, and what that costs on the wire is
    read off the records, not re-derived per message.
    """

    def __init__(self) -> None:
        self._by_pid: Dict[int, Dict[int, Interval]] = {}
        self.total_created = 0
        self.total_nonempty = 0
        #: When True, every interval's vector clock is retained in
        #: :attr:`vc_log` even after the record itself is garbage-collected.
        #: Enabled with access tracing so the baseline (oracle) detectors
        #: can order trace events; the paper's online system never needs
        #: this retention — that is exactly its advantage (§7).
        self.log_vcs = False
        self.vc_log: Dict[tuple, "VectorClock"] = {}

    def log_vc(self, pid: int, index: int, vc) -> None:
        if self.log_vcs:
            self.vc_log[(pid, index)] = vc

    def add(self, interval: Interval) -> None:
        self._by_pid.setdefault(interval.pid, {})[interval.index] = interval
        self.total_created += 1
        if not interval.is_empty:
            self.total_nonempty += 1

    def get(self, pid: int, index: int) -> Optional[Interval]:
        return self._by_pid.get(pid, {}).get(index)

    def by_pid(self) -> Dict[int, Dict[int, Interval]]:
        return self._by_pid

    def records(self, pid: int, seen: int, horizon: int) -> List[Interval]:
        """The non-empty records of ``pid`` with an index in ``(seen,
        horizon]``, in index order: what a process whose clock names
        ``seen`` is missing of ``pid`` relative to one that names
        ``horizon`` — the consistency information LRC piggybacks on
        synchronization messages (§3.1).  Empty intervals carry no
        notices and never travel."""
        table = self._by_pid.get(pid)
        if horizon <= seen or not table:
            return []
        out: List[Interval] = []
        for idx in range(seen + 1, horizon + 1):
            rec = table.get(idx)
            if rec is not None and (rec.write_pages or rec.read_pages):
                out.append(rec)
        return out

    def epoch_intervals(self, epoch: int) -> List[Interval]:
        """All closed intervals belonging to a barrier epoch, in
        (pid, index) order for determinism."""
        out: List[Interval] = []
        for pid in sorted(self._by_pid):
            for idx in sorted(self._by_pid[pid]):
                rec = self._by_pid[pid][idx]
                if rec.epoch == epoch:
                    out.append(rec)
        return out

    def discard_epoch(self, epoch: int) -> int:
        """Drop records (and their bitmaps) for a fully-checked epoch;
        returns how many were discarded.  Ordering information (the vector
        clocks of *live* nodes) is unaffected."""
        dropped = 0
        for pid in list(self._by_pid):
            table = self._by_pid[pid]
            for idx in [i for i, rec in table.items() if rec.epoch == epoch]:
                del table[idx]
                dropped += 1
        return dropped

    def live_records(self) -> int:
        return sum(len(t) for t in self._by_pid.values())


class Node:
    """One simulated process's DSM state."""

    def __init__(self, pid: int, config: DsmConfig, clock: VirtualClock,
                 store: IntervalStore):
        self.pid = pid
        self.config = config
        self.clock = clock
        self.store = store
        self.vc = VectorClock.zero(config.nprocs)
        self.pages: Dict[int, PageCopy] = {}
        self.epoch = 0
        #: Pages twinned since the last release (multi-writer protocol).
        self.twinned_pages: List[int] = []
        # Access counters (Table 3).
        self.shared_instr_calls = 0
        self.private_instr_calls = 0
        self.intervals_created = 0
        # Crash tolerance (repro.sim.crash / repro.dsm.cvm).  ``crashed``
        # holds the pending CrashRecord between the injected crash and the
        # recovery performed at the node's next barrier; the two times feed
        # the recovery-cost model (re-execution debt is measured from the
        # restore point back to the crash).
        self.crashed = None  # Optional[repro.sim.crash.CrashRecord]
        self.epoch_start_time = 0.0
        self.last_checkpoint_time = 0.0
        # First interval.
        self.vc.tick(pid)
        self.current = Interval(pid, self.vc[pid], self.vc.copy(), self.epoch,
                                config.page_size_words, sync_label="start")
        self.intervals_created += 1
        store.log_vc(pid, self.vc[pid], self.current.vc)

    # ------------------------------------------------------------------ #
    # Pages.
    # ------------------------------------------------------------------ #
    def page_copy(self, page_id: int) -> PageCopy:
        copy = self.pages.get(page_id)
        if copy is None:
            copy = self.pages[page_id] = PageCopy(
                page_id, self.config.page_size_words)
        return copy

    # ------------------------------------------------------------------ #
    # Interval lifecycle.
    # ------------------------------------------------------------------ #
    def close_interval(self) -> Interval:
        """Close the current interval (at a release or acquire), store it,
        and charge the bookkeeping costs.  Returns the closed record."""
        closed = self.current
        closed.close()
        self.store.add(closed)
        cm = self.config.cost_model
        self.clock.advance(cm.interval_bookkeeping, CostCategory.BASE)
        if self.config.detection and not closed.is_empty:
            # Registering the interval's detection structures (read-notice
            # list, bitmap table) is part of the paper's "CVM Mods" cost.
            self.clock.advance(cm.detect_interval_setup, CostCategory.CVM_MODS)
        return closed

    def open_interval(self, sync_label: str) -> Interval:
        """Tick our vector-clock entry and begin a new interval.  Callers
        must have already merged any acquired clock via ``observe``."""
        self.vc.tick(self.pid)
        self.current = Interval(self.pid, self.vc[self.pid], self.vc.copy(),
                                self.epoch, self.config.page_size_words,
                                sync_label=sync_label)
        self.intervals_created += 1
        self.store.log_vc(self.pid, self.vc[self.pid], self.current.vc)
        return self.current

    def intervals_in_current_epoch(self) -> int:
        """Own closed intervals tagged with the current epoch (metric for
        Table 1's "Intervals Per Barrier")."""
        table = self.store.by_pid().get(self.pid, {})
        return sum(1 for rec in table.values() if rec.epoch == self.epoch)
