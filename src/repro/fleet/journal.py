"""Append-only fleet state journal with torn-tail recovery.

The journal is the fleet's source of truth for ``serve --resume``: every
state transition — submission, worker start, attempt outcome, retry,
terminal classification, drain — is appended as one record of a
:mod:`repro.durable` append log and flushed before the transition takes
effect.  If the service itself is SIGKILLed, the on-disk journal is a
prefix of the true history ending in at most one torn record;
:meth:`FleetJournal.replay` stops at the first invalid record and reports
how much it dropped.

Only the service process writes the journal (submissions ride separate
spool files until ingestion), so frames never interleave.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro import durable
from repro.errors import FleetError

#: Bump when the journal event schema changes incompatibly.
JOURNAL_FORMAT_VERSION = 1


def _decode_event(body: str, index: int) -> Dict[str, Any]:
    """One journal record: an event object numbered by its position."""
    record = json.loads(body)
    if not isinstance(record, dict) or "event" not in record \
            or record.get("n") != index:
        raise ValueError("not the journal's next event")
    return record


class FleetJournal:
    """Single-writer, append-only event log."""

    def __init__(self, path: str):
        self.path = path
        self._fh = None
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Writing.
    # ------------------------------------------------------------------ #
    def open(self, seq_start: int = 0) -> None:
        """Open for appending.  ``seq_start`` continues numbering after a
        resume (replayed events already hold 0..seq_start-1).

        Any torn tail left by a SIGKILLed writer is cut back to the last
        intact record first.
        """
        if self._fh is not None:
            raise FleetError(f"journal {self.path!r} is already open")
        self._fh = durable.open_log(self.path, _decode_event)
        self._seq = seq_start

    def append(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Frame and append one event, flushed so a killed service loses
        at most the frame being written."""
        if self._fh is None:
            raise FleetError(f"journal {self.path!r} is not open")
        record = {"v": JOURNAL_FORMAT_VERSION, "n": self._seq,
                  "event": event}
        record.update(fields)
        durable.append_log(self._fh, durable.canon(record))
        self._seq += 1
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #
    @staticmethod
    def replay(path: str) -> Tuple[List[Dict[str, Any]], int]:
        """Decode the longest intact record prefix.

        Returns ``(events, dropped_lines)``: ``dropped_lines`` counts
        trailing lines past the last intact record (0 for a cleanly
        written journal; 1-2 after a torn write).  A corrupt or
        misnumbered record in the *middle* also stops the replay —
        everything after an unverifiable record is untrusted.  A missing
        file is an empty history.
        """
        try:
            return durable.replay_log(path, _decode_event)[:2]
        except OSError as exc:
            raise FleetError(f"cannot read journal {path!r}: {exc}")

    @staticmethod
    def last_seq(events: List[Dict[str, Any]]) -> int:
        """Sequence number the next append should use."""
        return events[-1]["n"] + 1 if events else 0
