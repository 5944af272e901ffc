"""Durable records: the one copy of every stable-storage mechanism.

The detector of the paper lives in memory; the reproduction keeps three
records on stable storage — the per-process barrier checkpoint logs, the
coordinator journal and the synchronization-order trace.  What they share
is owned here: the canonical form and its digest, the frame
(``body + "\\n" + digest(body)``, which any truncation or corruption
breaks detectably), atomic publish, the append-log writer and reader and
the exclusive lock.

Mechanism only.  What a torn record *means* stays with the caller: its
error type, its message and its recovery policy (docs/robustness.md,
"Durable records").  Standard library only, and no ``repro`` import: every
layer may depend on this module.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: locks are not taken
    fcntl = None


_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canon(obj: Any) -> str:
    """Canonical JSON text (sorted keys, no whitespace)."""
    return _CANON.encode(obj)


def assemble(members: dict[str, str] | Iterable[str]) -> str:
    """Canonical text of an object (``{key: text}``) or array (the texts in
    order) from its members' canonical texts: for a JSON-able ``d`` keyed by
    strings, ``assemble({k: canon(v) for k, v in d.items()}) == canon(d)``.
    Joined, not ``+``-chained: appending to a large temporary reallocates
    it, which costs more than copying it."""
    if isinstance(members, dict):
        return "".join(["{", ",".join([f"{canon(key)}:{members[key]}"
                                       for key in sorted(members)]), "}"])
    return "".join(["[", ",".join(members), "]"])


def digest(text: str) -> str:
    """Content hash of a text: 16 hex digits of BLAKE2b."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def content_hash(obj: Any) -> str:
    """Digest of an object's canonical form — what pins a trace to its
    configuration."""
    return digest(canon(obj))


# ---------------------------------------------------------------------- #
# Frames.
# ---------------------------------------------------------------------- #
def frame(body: str) -> str:
    """``body`` plus a trailing content-hash line (no final newline)."""
    return f"{body}\n{digest(body)}"


def unframe(framed: str) -> Optional[str]:
    """The body of an intact frame, or ``None`` when the frame is torn or
    corrupt."""
    body, sep, tail = framed.rpartition("\n")
    if not sep or digest(body) != tail:
        return None
    return body


# ---------------------------------------------------------------------- #
# Whole files.
# ---------------------------------------------------------------------- #
def read_text(path: str, error: Optional[type] = None,
              what: str = "file") -> str:
    """The file's text.  With ``error``, an ``OSError`` is re-raised as
    ``error("cannot read <what> <path>: ...")``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        if error is None:
            raise
        raise error(f"cannot read {what} {path!r}: {exc}") from exc


def publish(path: str, text: str, error: Optional[type] = None,
            what: str = "file") -> int:
    """Atomically replace ``path`` with ``text``: write ``<path>.tmp``,
    rename it over ``path``.  A writer killed mid-write leaves the previous
    file (or none), never a torn one.  Returns the byte count written;
    ``error``/``what`` as in :func:`read_text`."""
    data = text.encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if error is None:
            raise
        raise error(f"cannot write {what} {path!r}: {exc}") from exc
    return len(data)


# ---------------------------------------------------------------------- #
# Append log.
# ---------------------------------------------------------------------- #
def append(log: Union[bytearray, str], bodies: Iterable[str],
           fresh: bool = False, error: Optional[type] = None,
           what: str = "log") -> int:
    """Append each body to ``log`` as one record, ``frame(body) + "\\n"``:
    ``log`` is an in-memory ``bytearray`` or the path of a file (created
    if missing; with ``fresh``, started over).  A writer killed mid-append
    leaves a torn tail, which :func:`parse_log` drops.  Returns the byte
    count appended; ``error``/``what`` as in :func:`read_text`."""
    data = "".join([frame(body) + "\n" for body in bodies]).encode("utf-8")
    if isinstance(log, bytearray):
        log.extend(data)
        return len(data)
    try:
        with open(log, "wb" if fresh else "ab") as fh:
            fh.write(data)
    except OSError as exc:
        if error is None:
            raise
        raise error(f"cannot write {what} {log!r}: {exc}") from exc
    return len(data)


def parse_log(data: bytes, decode: Callable[[str, int], Any]
              ) -> Tuple[List[Any], int, int]:
    """Decode the longest intact prefix of an append log's bytes.

    ``decode(body, index)`` turns the ``index``-th record's body into the
    caller's record, or raises ``ValueError`` to refuse it.  The replay
    stops at the first record that fails its hash, lacks its terminating
    newline or is refused — whatever follows an unverifiable record is
    untrusted.  Returns ``(records, dropped_lines, intact_bytes)``:
    ``dropped_lines`` counts the lines past the intact prefix (0 for a
    cleanly written log, 1-2 after a torn append), ``intact_bytes`` is the
    prefix's length in ``data``."""
    lines = data.split(b"\n")
    unterminated = lines.pop()  # bytes after the last newline, if any
    records: List[Any] = []
    intact_bytes = 0
    for i in range(0, len(lines) - 1, 2):
        try:
            body = lines[i].decode("utf-8")
            if digest(body) != lines[i + 1].decode("utf-8"):
                break
            records.append(decode(body, len(records)))
        except ValueError:  # undecodable bytes, or the caller's refusal
            break
        intact_bytes += len(lines[i]) + len(lines[i + 1]) + 2
    dropped = len(lines) - 2 * len(records) + (1 if unterminated else 0)
    return records, dropped, intact_bytes


# ---------------------------------------------------------------------- #
# Exclusive lock with a holder note.
# ---------------------------------------------------------------------- #
class LockHeld(Exception):
    """The lock is held by someone else; ``holder`` is their note."""

    def __init__(self, holder: str):
        super().__init__(holder)
        self.holder = holder


class FileLock:
    """Exclusive advisory lock on ``path``, held until :meth:`close`.

    ``flock`` locks follow the open file description: they exclude a
    second taker in the same process as well as other processes, and die
    with the holder, so a killed process never wedges the path.  The file's
    content is the holder's :attr:`note`.  A second taker gets
    :class:`LockHeld` (carrying the holder's note) instead of blocking."""

    def __init__(self, path: str):
        self._fd: Optional[int] = os.open(path, os.O_RDWR | os.O_CREAT,
                                          0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = self.note
            self.close()
            raise LockHeld(holder) from None
        except OSError:
            self.close()
            raise

    @property
    def note(self) -> str:
        os.lseek(self._fd, 0, os.SEEK_SET)
        return os.read(self._fd, 256).decode("utf-8", "replace").strip()

    @note.setter
    def note(self, text: str) -> None:
        os.lseek(self._fd, 0, os.SEEK_SET)
        os.ftruncate(self._fd, 0)
        os.write(self._fd, text.encode("utf-8"))

    def close(self) -> None:
        """Release the lock (idempotent); the file is left behind."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
