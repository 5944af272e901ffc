"""Synchronization record/replay and racy-access attribution (§6.1, §7).

The paper's reference-identification story: the online system reports the
*address* of a racy variable plus the interval indexes; mapping that back to
the *instructions* involved would require retaining a program counter per
access — prohibitive.  Instead (§6.1), a second run re-executes the program
and collects PC information only for accesses to the conflicted address.
Because the racy programs have nondeterministic synchronization order
(general races), the second run must enforce the first run's
synchronization order — the ROLT idea (§7): record minimal ordering
information (the sequence in which each lock is granted), then force the
same grant order on replay.

* :class:`~repro.replay.trace.SyncTraceRecorder` — first run: log grants.
* :class:`~repro.replay.trace.SyncTraceEnforcer` — second run: force them.
* :func:`~repro.replay.attribute.attribute_races` — the full two-run
  pipeline: detect races, then replay with a watch on the racy addresses
  and return the access sites (our PC analogue) that produced them.

The two-phase pipeline (``--mode record`` / ``--mode detect-offline``)
uses the same two classes for the production-traffic use case: a record
run logs the *complete* synchronization order (lock grants, barrier
arrival order, sync-message delivery order) to a hash-framed trace file
with detection off, and a replay run re-executes steered by the trace
with the full detector on — see :mod:`repro.replay.trace`.
"""

from repro.replay.attribute import AttributionReport, attribute_races
from repro.replay.trace import (
    SYNC_TAGS,
    SyncTrace,
    SyncTraceEnforcer,
    SyncTraceRecorder,
    execution_digest,
    load_trace,
    write_trace,
)

__all__ = [
    "AttributionReport",
    "SYNC_TAGS",
    "SyncTrace",
    "SyncTraceEnforcer",
    "SyncTraceRecorder",
    "attribute_races",
    "execution_digest",
    "load_trace",
    "write_trace",
]
