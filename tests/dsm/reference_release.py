"""Consistency shipping one record at a time — the executable spec of
:meth:`repro.dsm.sync.Synchronizer.consistency_payload`,
``apply_write_notices``, ``apply_consistency`` and
``_barrier_release_pass``, and of
:meth:`repro.dsm.protocol.Protocol.apply_write_notice`.

This is the shipping as it stood before owner ranges were summarized: a
payload is the list of records :func:`unseen` selects, priced record by
record (:meth:`Synchronizer.record_bytes`), and every record's write
notices are applied on their own — a record of the
receiver itself invalidates nothing, and a copy the protocol keeps
despite a notice is kept.  Every receiver of the barrier release pass
walks and prices its own list.  Production must leave the same page
states, counters, traffic, ledgers and reports behind.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from repro.dsm.interval import Interval
from repro.dsm.node import IntervalStore, Node
from repro.dsm.page import PageState
from repro.dsm.sync import Synchronizer
from repro.dsm.vector_clock import VectorClock


def unseen(store: IntervalStore, have: VectorClock, upto: VectorClock,
           pids=None) -> List[Interval]:
    """The non-empty records a process with clock ``have`` is missing
    relative to one that has seen ``upto``, in (pid, index) order; of the
    owners ``pids`` only when given."""
    have_entries, upto_entries = have.entries, upto.entries
    out: List[Interval] = []
    for pid in range(len(upto_entries)) if pids is None else pids:
        seen, horizon = have_entries[pid], upto_entries[pid]
        table = store.by_pid().get(pid)
        if horizon <= seen or not table:
            continue
        for idx in range(seen + 1, horizon + 1):
            rec = table.get(idx)
            if rec is not None and (rec.write_pages or rec.read_pages):
                out.append(rec)
    return out


def apply_write_notice(protocol, node: Node, interval: Interval) -> None:
    """Invalidate local copies of pages written by a newly-seen remote
    interval (the acquire-time half of lazy release consistency)."""
    if interval.pid == node.pid:
        return
    for page_id in interval.write_pages:
        copy = node.pages.get(page_id)
        if (copy is None or copy.state is PageState.INVALID
                or copy.data is None):
            continue
        if protocol._keeps_copy_despite_notice(node, page_id):
            continue
        protocol.invalidations += 1
        copy.state = PageState.INVALID
        copy.data = None
        copy.drop_twin()


def consistency_payload(sync: Synchronizer, have: VectorClock,
                        upto: Optional[VectorClock], pids=None,
                        ranges=None):
    """The records a process with clock ``have`` is missing up to
    ``upto``, and (records, body, read-notice, digest) bytes; ``ranges``
    is ignored — nothing is shared."""
    recs = [] if upto is None else unseen(sync.store, have, upto, pids)
    body, read_bytes, digest_bytes = sync.record_bytes(recs)
    return (recs, len(recs), sync.sizer.vector_clock() + body, read_bytes,
            digest_bytes)


def apply_write_notices(sync: Synchronizer, node: Node,
                        recs: List[Interval]) -> None:
    for rec in recs:
        apply_write_notice(sync.protocol, node, rec)


def apply_consistency(sync: Synchronizer, node: Node, recs: List[Interval],
                      horizon: VectorClock) -> None:
    apply_write_notices(sync, node, recs)
    node.vc.observe(horizon)


def barrier_release_pass(sync: Synchronizer, bar, master_node: Node) -> None:
    """One payload per process, each walked and priced on its own, its
    write notices applied record by record."""
    master_clock = master_node.clock
    release_vc = master_node.vc.copy()
    for other in range(sync.config.nprocs):
        if other == bar.master:
            bar.release_box[other] = (release_vc, master_clock.now)
            continue
        recs, msg = sync._ship_consistency(
            sync.nodes[other].vc, release_vc, master_clock,
            ("barrier_release", bar.master, other))
        for rec in recs:
            apply_write_notice(sync.protocol, sync.nodes[other], rec)
        bar.release_box[other] = (release_vc, msg.arrival_time)


@contextlib.contextmanager
def reference_shipping() -> Iterator[None]:
    """Every system driven inside the block ships one record at a time."""
    spec = {"consistency_payload": consistency_payload,
            "apply_write_notices": apply_write_notices,
            "apply_consistency": apply_consistency,
            "_barrier_release_pass": barrier_release_pass}
    production = {name: getattr(Synchronizer, name) for name in spec}
    for name, func in spec.items():
        setattr(Synchronizer, name, func)
    try:
        yield
    finally:
        for name, func in production.items():
            setattr(Synchronizer, name, func)
