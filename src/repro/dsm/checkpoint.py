"""Barrier-consistent node checkpoints.

Barriers are natural consistent cuts in lazy release consistency: at a
barrier departure every write notice of the closed epoch has been applied,
the checked epoch's trace information has been discarded, and the departing
node's freshly-opened interval is still empty.  A snapshot taken there
captures one node's complete DSM state — vector clock, page copies (with
protection states and twins), access counters, and the node's live interval
records including their word bitmaps — with nothing in flight.

Snapshots serialize to a canonical JSON form (sorted keys, no whitespace),
so byte size is deterministic and doubles as the recovery-cost input.  A
node's first checkpoint is written whole (the *base*); every later one is a
*delta* against the node's previous generation, component by component —
only pages and interval records whose canonical text changed (plus scalar
fields that moved and explicit deletion lists).  Each page and interval
record is encoded once per snapshot; the full text and the next delta are
assembled from those member texts.  The priced bytes are the written
record's.

With ``--checkpoint-dir`` the :class:`CheckpointManager` also appends each
node's records to one log, ``ckpt_p<pid>.log`` (``durable.append``: one
framed record per cut), which enables *cross-run* restoration of a long
simulation's per-node state (``CheckpointManager.load_dir``) in addition to
the in-run crash recovery driven by :mod:`repro.dsm.recovery`.  Loading
drops a torn tail and folds each log with :func:`apply_delta`, validating
base-generation continuity and the base content hash at every link, up to
the latest cut every node reached.  The run side lives here too:
:func:`barrier_cut` is what a system does at every cut,
:class:`ResumePoint` is ``--resume-from``.

The round-trip contracts (asserted property-style in
``tests/dsm/test_checkpoint.py`` and ``test_checkpoint_delta.py``):
``snapshot → serialize → restore → snapshot`` is idempotent for every
registered application at any barrier generation, and
``apply_delta(prev, encode_delta(prev, snap))`` reproduces ``snap``'s
canonical bytes exactly.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, TYPE_CHECKING

from repro import durable
from repro.core.bitmap import Bitmap
from repro.dsm.interval import Interval
from repro.dsm.page import PageCopy, PageState
from repro.dsm.vector_clock import VectorClock
from repro.errors import CheckpointError, ConfigError
from repro.sim.costmodel import CostCategory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (node ← checkpoint)
    from repro.dsm.cvm import CVM
    from repro.dsm.node import IntervalStore, Node

#: Bump when the snapshot schema changes incompatibly.
FORMAT_VERSION = 1

_LOG_RE = re.compile(r"ckpt_p(\d+)\.log$")
#: The one-file-per-generation layout this format replaced.
_OLD_FILE_RE = re.compile(r"ckpt_p\d+_g\d+\.json$")


# ---------------------------------------------------------------------- #
# Interval (de)serialization.
# ---------------------------------------------------------------------- #
def _bitmaps_to_dict(bitmaps: Dict[int, Bitmap]) -> Dict[str, str]:
    return {str(page): bm.to_bytes().hex()
            for page, bm in sorted(bitmaps.items())}


def _bitmaps_from_dict(encoded: Dict[str, str]) -> Dict[int, Bitmap]:
    return {int(page): Bitmap.from_bytes(bytes.fromhex(hexed))
            for page, hexed in encoded.items()}


def interval_to_dict(rec: Interval) -> Dict[str, Any]:
    """Full serializable form of one interval record (bitmaps included —
    the whole point of checkpointing is that detection metadata survives)."""
    return {
        "pid": rec.pid,
        "index": rec.index,
        "epoch": rec.epoch,
        "vc": list(rec.vc.entries),
        "page_size_words": rec.page_size_words,
        "sync_label": rec.sync_label,
        "closed": rec.closed,
        "lost": rec.lost,
        "write_pages": sorted(rec.write_pages),
        "read_pages": sorted(rec.read_pages),
        "write_bitmaps": _bitmaps_to_dict(rec.write_bitmaps),
        "read_bitmaps": _bitmaps_to_dict(rec.read_bitmaps),
    }


def interval_from_dict(data: Dict[str, Any]) -> Interval:
    rec = Interval(data["pid"], data["index"], VectorClock(data["vc"]),
                   data["epoch"], data["page_size_words"],
                   sync_label=data["sync_label"])
    rec.write_pages = set(data["write_pages"])
    rec.read_pages = set(data["read_pages"])
    rec.write_bitmaps = _bitmaps_from_dict(data["write_bitmaps"])
    rec.read_bitmaps = _bitmaps_from_dict(data["read_bitmaps"])
    rec.closed = data["closed"]
    rec.lost = data["lost"]
    return rec


# ---------------------------------------------------------------------- #
# Node snapshots.
# ---------------------------------------------------------------------- #
def _assemble(data: Dict[str, Any], **sections: str) -> str:
    """Canonical text of ``data``, its large ``sections`` given as texts."""
    texts = {key: durable.canon(value) for key, value in data.items()
             if key not in sections}
    texts.update(sections)
    return durable.assemble(texts)


@dataclass(frozen=True)
class _Snapshot:
    """What a base and a delta record share: the payload dict, its
    memoized canonical encoding and the size charged for it."""

    data: Dict[str, Any]

    #: Memoized canonical encoding; filled in lazily via
    #: ``object.__setattr__`` (the dataclass is frozen).  ``data`` must not
    #: be mutated after the first ``to_json`` call — snapshots are
    #: write-once by construction.
    _json: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def pid(self) -> int:
        return self.data["pid"]

    @property
    def generation(self) -> int:
        """Number of barriers the node had completed when snapped (0 = the
        initial pre-application checkpoint)."""
        return self.data["generation"]

    def _encode(self) -> str:
        return durable.canon(self.data)

    def to_json(self) -> str:
        """Canonical encoding, produced once and memoized: the size
        charge, the stats, the log append and the delta base hash all
        consult it without re-encoding."""
        cached = self._json
        if cached is None:
            cached = self._encode()
            object.__setattr__(self, "_json", cached)
        return cached

    @functools.cached_property
    def nbytes(self) -> int:
        """Serialized size — the byte count recovery and checkpoint-write
        costs are charged on."""
        return len(self.to_json().encode("utf-8"))


@dataclass(frozen=True)
class NodeSnapshot(_Snapshot):
    """One node's barrier-consistent state, as a plain serializable dict.

    Two snapshots are equal iff their canonical JSON forms are equal —
    the round-trip tests lean on this.

    *Member texts ⇒ canonical text.*  Each page and interval record is
    encoded once, into :attr:`members`; ``durable.assemble`` (held to
    ``durable.canon``) builds the full text and the next delta from those.
    """

    @functools.cached_property
    def members(self) -> Dict[str, Dict[str, str]]:
        """``{key: text}`` of the pages and of the records (by index), in
        payload order; released by the manager once superseded."""
        return {"pages": {key: durable.canon(page) for key, page
                          in self.data["pages"].items()},
                "records": {str(rec["index"]): durable.canon(rec)
                            for rec in self.data["store_records"]}}

    def release_members(self) -> None:
        self.__dict__.pop("members", None)

    def _encode(self) -> str:
        pages, records = self.members.values()
        return _assemble(self.data, pages=durable.assemble(pages),
                         store_records=durable.assemble(records.values()))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NodeSnapshot)
                and self.to_json() == other.to_json())


@dataclass(frozen=True)
class DeltaSnapshot(_Snapshot):
    """A checkpoint encoded against the node's previous generation.

    Holds only the components whose member text changed (plus deletions
    and moved scalar fields); ``nbytes`` is therefore the *bytes written
    this generation* — exactly what the virtual-time write cost and the
    checkpoint statistics should price.  Restoration always goes through
    a reconstructed full :class:`NodeSnapshot` (see :func:`apply_delta`).
    """


#: Top-level snapshot fields a delta may carry forward wholesale (the
#: dict-valued components ``pages``/``store_records`` are diffed by
#: member text instead).
_DELTA_SCALAR_FIELDS = ("epoch", "clock_now", "vc", "intervals_created",
                        "shared_instr_calls", "private_instr_calls",
                        "twinned_pages", "current")


def encode_delta(prev: NodeSnapshot, snap: NodeSnapshot) -> DeltaSnapshot:
    """Encode ``snap`` as a delta against ``prev`` (same pid, the node's
    previous checkpoint generation).

    Pages and interval records are compared by member text
    (:attr:`NodeSnapshot.members`): an unchanged entry is omitted
    entirely, a changed or new one is carried in full — the delta's text
    is assembled from the same member texts — and one that disappeared
    goes on an explicit deletion list.  The delta also pins
    ``base_generation`` and the base's full-snapshot hash so a broken or
    reordered chain is detected at replay time, not silently mis-applied.
    """
    if prev.pid != snap.pid:
        raise CheckpointError(
            f"cannot delta-encode P{snap.pid} against P{prev.pid}")
    pd, nd = prev.data, snap.data
    set_fields: Dict[str, Any] = {}
    for key in _DELTA_SCALAR_FIELDS:
        if nd[key] != pd[key]:
            set_fields[key] = nd[key]
    # The coordinator section (master failover only) rides the delta chain
    # like a scalar field.  The key is present in either every snapshot of
    # a run or none (the failover flag is fixed at config time), so
    # presence mismatches cannot occur within one chain.
    if "coordinator" in nd and nd["coordinator"] != pd.get("coordinator"):
        set_fields["coordinator"] = nd["coordinator"]
    values = {"pages": nd["pages"],
              "records": {str(r["index"]): r for r in nd["store_records"]}}
    sections, texts = {}, {}
    for name, new in snap.members.items():
        old = prev.members[name]
        changed = {key: text for key, text in new.items()
                   if old.get(key) != text}
        gone = sorted((key for key in old if key not in new), key=int)
        sections[name] = {"set": {key: values[name][key] for key in changed},
                          "del": gone}
        texts[name] = durable.assemble({"set": durable.assemble(changed),
                                        "del": durable.canon(gone)})
    data = {
        "version": FORMAT_VERSION,
        "delta": True,
        "pid": snap.pid,
        "generation": snap.generation,
        "base_generation": prev.generation,
        "base_hash": durable.digest(prev.to_json()),
        "set": set_fields,
        **sections,
    }
    return DeltaSnapshot(data, _assemble(data, **texts))


def apply_delta(prev: NodeSnapshot, delta: DeltaSnapshot) -> NodeSnapshot:
    """Reconstruct the full snapshot a delta encodes, given its base.

    Validates pid, base-generation continuity and the base content hash;
    the reconstruction is byte-identical to the full snapshot the delta
    was encoded from (asserted by the delta round-trip tests)."""
    d = delta.data
    if d["pid"] != prev.pid:
        raise CheckpointError(
            f"delta of P{d['pid']} cannot apply to P{prev.pid}")
    if d["base_generation"] != prev.generation:
        raise CheckpointError(
            f"delta chain gap for P{prev.pid}: delta generation "
            f"{d['generation']} is based on generation "
            f"{d['base_generation']}, but the reconstructed base is at "
            f"generation {prev.generation}")
    if d["base_hash"] != durable.digest(prev.to_json()):
        raise CheckpointError(
            f"delta base mismatch for P{prev.pid} at generation "
            f"{d['generation']}: the base snapshot's content hash does "
            "not match the one the delta was encoded against")
    data = json.loads(prev.to_json())  # deep copy via the memoized form
    data["generation"] = d["generation"]
    for key, value in d["set"].items():
        data[key] = value
    pages = data["pages"]
    for key in d["pages"]["del"]:
        pages.pop(key, None)
    pages.update(d["pages"]["set"])
    records = {str(r["index"]): r for r in data["store_records"]}
    for key in d["records"]["del"]:
        records.pop(key, None)
    records.update(d["records"]["set"])
    data["store_records"] = [records[k] for k in sorted(records, key=int)]
    return NodeSnapshot(data)


def read_log(path: str, pid: int) -> List[_Snapshot]:
    """The intact records of ``pid``'s checkpoint log at ``path``: its base
    record, then its deltas, in the order written.  A torn or corrupt tail
    (a run killed mid-append) is dropped; an intact record that is not
    ``pid``'s, not in this format or out of place is refused."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint log {path!r}: {exc}") from exc

    def decode(body: str, index: int) -> _Snapshot:
        rec = json.loads(body)
        if rec.get("version") != FORMAT_VERSION or rec.get("pid") != pid:
            raise CheckpointError(
                f"record {index} of checkpoint log {path!r} is not a "
                f"version-{FORMAT_VERSION} record of P{pid}")
        if bool(rec.get("delta")) != (index > 0):
            raise CheckpointError(
                f"record {index} of checkpoint log {path!r} is a "
                f"{'delta' if index == 0 else 'base'} record: a log is "
                "one base record, then deltas")
        return DeltaSnapshot(rec) if index else NodeSnapshot(rec, body)

    return durable.parse_log(data, decode)[0]


def fold(records: Iterable[_Snapshot]) -> Iterator[NodeSnapshot]:
    """The full snapshot at each record of one log (:func:`read_log`):
    the base, then each delta applied to the snapshot before it."""
    current: Optional[NodeSnapshot] = None
    for rec in records:
        if current is None:
            current = rec
        else:
            base, current = current, apply_delta(current, rec)
            base.release_members()  # encoded for the hash check
        yield current


def snapshot_node(node: "Node", store: "IntervalStore",
                  generation: int,
                  coordinator: Optional[Dict[str, Any]] = None
                  ) -> NodeSnapshot:
    """Capture one node's complete DSM state at a barrier cut.

    ``coordinator`` is the per-node coordinator-role section
    (:meth:`repro.dsm.coordinator.CoordinatorRole.snapshot_section`),
    included only under master failover — without it the snapshot bytes
    are identical to pre-failover builds, keeping failover-off artifacts
    byte-identical."""
    pages: Dict[str, Any] = {}
    for page_id, copy in sorted(node.pages.items()):
        # Copy the word lists: the snapshot must freeze barrier-time page
        # contents, not alias the live lists the node keeps mutating
        # (delta encoding hashes the retained previous snapshot later).
        pages[str(page_id)] = {
            "state": copy.state.value,
            "data": None if copy.data is None else list(copy.data),
            "twin": None if copy.twin is None else list(copy.twin),
        }
    records = store.by_pid().get(node.pid, {})
    data = {
        "version": FORMAT_VERSION,
        "pid": node.pid,
        "generation": generation,
        "epoch": node.epoch,
        "clock_now": node.clock.now,
        "vc": list(node.vc.entries),
        "intervals_created": node.intervals_created,
        "shared_instr_calls": node.shared_instr_calls,
        "private_instr_calls": node.private_instr_calls,
        "twinned_pages": list(node.twinned_pages),
        "pages": pages,
        "current": interval_to_dict(node.current),
        "store_records": [interval_to_dict(records[idx])
                          for idx in sorted(records)],
    }
    if coordinator is not None:
        data["coordinator"] = coordinator
    return NodeSnapshot(data)


def restore_node(snap: NodeSnapshot, node: "Node",
                 store: "IntervalStore") -> None:
    """Install a snapshot's state into ``node`` (and its slice of the
    interval store), overwriting whatever was there.

    The node's virtual *clock* is deliberately untouched: recovery time is
    an accounting decision of the caller (in-run recovery charges restart +
    restore + re-execution under ``CostCategory.RECOVERY``; clocks never
    rewind).
    """
    if snap.pid != node.pid:
        raise CheckpointError(
            f"checkpoint of P{snap.pid} cannot restore node P{node.pid}")
    data = snap.data
    node.vc = VectorClock(data["vc"])
    node.epoch = data["epoch"]
    node.intervals_created = data["intervals_created"]
    node.shared_instr_calls = data["shared_instr_calls"]
    node.private_instr_calls = data["private_instr_calls"]
    node.twinned_pages = list(data["twinned_pages"])
    node.pages = {}
    for page_key, page_data in data["pages"].items():
        copy = PageCopy(int(page_key), node.config.page_size_words)
        copy.state = PageState(page_data["state"])
        copy.data = (None if page_data["data"] is None
                     else list(page_data["data"]))
        copy.twin = (None if page_data["twin"] is None
                     else list(page_data["twin"]))
        node.pages[int(page_key)] = copy
    node.current = interval_from_dict(data["current"])
    restored = [interval_from_dict(d) for d in data["store_records"]]
    store.by_pid()[node.pid] = {rec.index: rec for rec in restored}


# ---------------------------------------------------------------------- #
# The manager: latest-per-pid snapshots, optional disk persistence.
# ---------------------------------------------------------------------- #
def _list_dir(directory: str) -> List[str]:
    try:
        return sorted(os.listdir(directory))
    except OSError as exc:
        raise CheckpointError(
            f"cannot list checkpoint directory {directory!r}: "
            f"{exc}") from exc


def _refuse_foreign_files(directory: str, names: List[str],
                          nprocs: Optional[int] = None) -> None:
    """Refuse a directory holding a checkpoint file of the older
    per-generation format or, given the run's ``nprocs``, the log of a
    pid the run does not have: either would make a later resume from
    the directory fail."""
    old = [name for name in names if _OLD_FILE_RE.match(name)]
    if old:
        raise CheckpointError(
            f"checkpoint directory {directory!r} holds {old[0]!r}, a "
            "per-generation checkpoint file of an older format: "
            "checkpoints are one log per process (ckpt_p<pid>.log); "
            "write a fresh directory with --checkpoint-dir")
    if nprocs is None:
        return
    for name in names:
        m = _LOG_RE.match(name)
        if m and int(m.group(1)) >= nprocs:
            raise CheckpointError(
                f"checkpoint directory {directory!r} holds {name!r}, the "
                f"log of P{m.group(1)}, but the run has nprocs={nprocs}: "
                "a resume from it would cover pids the run does not "
                "have; write a fresh directory with --checkpoint-dir")


class CheckpointManager:
    """Holds the latest barrier checkpoint of every node.

    Every checkpoint after a node's first is written as a
    :class:`DeltaSnapshot` against the previous generation; :meth:`latest`
    (and therefore recovery) always serves the full snapshot.  With a
    ``directory``, each node's records are also appended to its log
    ``ckpt_p<pid>.log`` there, so a later process can rehydrate the run's
    per-node state with :meth:`load_dir` (cross-run resume of long
    simulations).  A directory that such a resume would refuse — one
    holding an older-format file or, given the run's ``nprocs``, the log
    of a pid outside the run — is refused up front.
    """

    def __init__(self, directory: Optional[str] = None,
                 nprocs: Optional[int] = None):
        self.directory = directory
        self._lock: Optional[durable.FileLock] = None
        if directory is not None:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot create checkpoint directory {directory!r}: "
                    f"{exc}") from exc
            self._acquire_lock(directory)
            try:
                _refuse_foreign_files(directory, _list_dir(directory),
                                      nprocs)
            except CheckpointError:
                self.close()
                raise
        self._latest: Dict[int, NodeSnapshot] = {}

    # ------------------------------------------------------------------ #
    # Directory exclusivity.
    # ------------------------------------------------------------------ #
    def _acquire_lock(self, directory: str) -> None:
        """Take the exclusive lock on ``<directory>/LOCK``.

        Two live runs writing one ``--checkpoint-dir`` would interleave
        their ``ckpt_p*.log`` records and silently corrupt *both* runs'
        recovery (and a later ``--resume-from`` would restore a chimera).
        The lock makes the collision loud: the second run is refused with
        a :class:`~repro.errors.ConfigError` naming the run already
        holding the directory — another CVM instance of this process or
        another process alike (:class:`repro.durable.FileLock`).
        """
        try:
            self._lock = durable.FileLock(os.path.join(directory, "LOCK"))
        except durable.LockHeld as held:
            raise ConfigError(
                f"checkpoint directory {directory!r} is already in use"
                + (f" by {held.holder}" if held.holder else "")
                + ": two runs cannot share one --checkpoint-dir (their "
                "ckpt_p*.log records would interleave and corrupt both "
                "recoveries); give each run its own directory") from None
        self._lock.note = f"os-pid {os.getpid()}"

    def close(self) -> None:
        """Release the directory lock (idempotent).  Called when the
        owning run finishes; the LOCK file itself is left behind — the
        next run re-locks and rewrites it, and ``load_dir`` ignores any
        file not matching the checkpoint log name pattern."""
        if self._lock is not None:
            self._lock.close()
            self._lock = None

    def take(self, node: "Node", store: "IntervalStore",
             generation: int,
             coordinator: Optional[Dict[str, Any]] = None) -> _Snapshot:
        """Snapshot ``node`` at barrier ``generation``; retain the full
        snapshot as the node's latest checkpoint and, when a directory is
        set, append the written record to the node's log — started over at
        the node's first take.  ``coordinator`` is the optional failover
        role section (see :func:`snapshot_node`).

        Returns the record written, base or delta — its ``nbytes`` is what
        the caller's virtual-time write charge and stats should price."""
        snap = snapshot_node(node, store, generation, coordinator)
        prev = self._latest.get(node.pid)
        written: _Snapshot = snap
        if prev is not None:
            written = encode_delta(prev, snap)
            prev.release_members()
        self._latest[node.pid] = snap
        if self.directory is not None:
            durable.append(
                os.path.join(self.directory, f"ckpt_p{node.pid}.log"),
                [written.to_json()], fresh=prev is None,
                error=CheckpointError, what="checkpoint log")
        return written

    def latest(self, pid: int) -> Optional[NodeSnapshot]:
        return self._latest.get(pid)

    @classmethod
    def load_dir(cls, directory: str) -> "CheckpointManager":
        """Rehydrate a manager from a checkpoint directory.

        Each log's intact records (:func:`read_log`) are folded up to the
        directory's *cut* — the latest generation every log reaches — and
        that snapshot becomes the pid's :meth:`latest`: the state a
        resumed run restarts each node from.  A directory of the older
        one-file-per-generation layout is refused by name."""
        names = _list_dir(directory)
        _refuse_foreign_files(directory, names)
        logs = {}
        for name in names:
            m = _LOG_RE.match(name)
            if m:
                pid = int(m.group(1))
                records = read_log(os.path.join(directory, name), pid)
                if records:
                    logs[pid] = records
        manager = cls()
        if not logs:
            return manager
        cut = min(records[-1].generation for records in logs.values())
        for pid, records in sorted(logs.items()):
            for snap in fold(records):
                if snap.generation == cut:
                    manager._latest[pid] = snap
                    break
            else:
                raise CheckpointError(
                    f"checkpoint directory {directory!r} has no consistent "
                    f"cut: P{pid} lacks generation {cut}")
        return manager

    def snapshots(self) -> List[NodeSnapshot]:
        """Latest snapshots, in pid order."""
        return [self._latest[pid] for pid in sorted(self._latest)]


# ---------------------------------------------------------------------- #
# The run side: what a system does at each barrier-consistent cut.
# ---------------------------------------------------------------------- #
class ResumePoint:
    """Cross-run resume (``--resume-from``): re-execute deterministically
    and, at the barrier generation the directory covers for every node,
    validate and reinstall each node's state from the restored snapshots.
    The resumed run must use the same configuration the checkpoints were
    written under (checkpointing stays enabled so the virtual-time write
    charges line up)."""

    def __init__(self, directory: str, nprocs: int):
        mgr = CheckpointManager.load_dir(directory)
        pids = sorted(s.pid for s in mgr.snapshots())
        if pids != list(range(nprocs)):
            raise CheckpointError(
                f"checkpoint directory {directory!r} covers "
                f"pids {pids}, but the run has nprocs={nprocs}")
        self.directory = directory
        self.manager = mgr
        #: The cut resumed at: the latest generation every node reached.
        self.generation = mgr.snapshots()[0].generation
        self.resumed_nodes = 0

    def install(self, system: "CVM", node: "Node") -> None:
        """Validate and install one node's restored snapshot at the resume
        cut.

        Deterministic re-execution has brought the node to exactly the
        state the checkpoint captured, so the freshly-computed snapshot
        must equal the stored one byte for byte — anything else means the
        directory came from a different app/params/flags and resuming
        would silently diverge.  The restored (deserialized) objects are
        then actually installed, so the remainder of the run exercises the
        restore path end to end."""
        snap = self.manager.latest(node.pid)
        current = snapshot_node(
            node, system.store, self.generation,
            coordinator=system.coordinator.snapshot_section(node.pid))
        if current != snap:
            raise CheckpointError(
                f"resume state diverged for P{node.pid} at generation "
                f"{self.generation}: the checkpoint directory was not "
                "produced by an equivalent run (same application, "
                "parameters, process count and flags)")
        restore_node(snap, node, system.store)
        self.resumed_nodes += 1

    def check_reached(self, generation: int) -> None:
        """After the run, whose last cut was ``generation``: a run that
        never reached the resume cut installed nothing and checked nothing,
        so it did not resume — refused, not reported as resumed."""
        if self.resumed_nodes < len(self.manager.snapshots()):
            raise CheckpointError(
                f"the run never reached the resume cut of "
                f"{self.directory!r}: its last cut was generation "
                f"{generation}, the directory's is generation "
                f"{self.generation} (was it written by another "
                "application or parameters?)")


def barrier_cut(system: "CVM", node: "Node", generation: int) -> None:
    """``node`` stands at the barrier-consistent cut ``generation`` (0:
    before the application starts, so every node can be recovered even if
    it dies before the first barrier).  A resuming run installs the
    restored state at its resume cut, before the checkpoint re-records the
    (identical) state; the bytes written are priced on the node's clock."""
    resume = system.resume
    if resume is not None and generation == resume.generation:
        resume.install(system, node)
    if system.checkpoints is not None:
        snap = system.checkpoints.take(
            node, system.store, generation,
            coordinator=system.coordinator.snapshot_section(node.pid))
        node.clock.advance(
            system.config.cost_model.checkpoint_write_per_byte * snap.nbytes,
            CostCategory.RECOVERY)
        node.last_checkpoint_time = node.clock.now
        system.crash_stats.checkpoints_written += 1
        system.crash_stats.checkpoint_bytes += snap.nbytes
