"""Delta checkpoints: round-trip exactness, chain validation, and the
bytes they save.

The contract: ``apply_delta(prev, encode_delta(prev, snap))`` reproduces
``snap``'s canonical JSON exactly; folding a node's checkpoint log (one
base record, then deltas) replays the very snapshots the run took;
recovery from delta checkpoints reproduces the crash-free race report
byte-identically; and the written bytes genuinely shrink.
"""

import os

import pytest

from repro import durable
from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.dsm.checkpoint import (CheckpointManager, DeltaSnapshot,
                                  NodeSnapshot, apply_delta, encode_delta,
                                  fold, read_log)
from repro.errors import CheckpointError
from tests.helpers import run_app_with_system


def _report_lines(result):
    return sorted(str(r) for r in result.races)


def _folded(d, nprocs):
    """Every node's log in ``d``, folded: ``{pid: [snapshot per
    generation]}``."""
    return {pid: list(fold(read_log(os.path.join(d, f"ckpt_p{pid}.log"),
                                    pid)))
            for pid in range(nprocs)}


def _snapshot_pairs(app_name="water", nprocs=4):
    """Consecutive-generation full snapshots of every node, harvested
    from a real checkpointed run."""
    spec = get_app(app_name)
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        spec.run(nprocs=nprocs, checkpoint_dir=d)
        pairs = []
        for _pid, snaps in sorted(_folded(d, nprocs).items()):
            pairs.extend(zip(snaps, snaps[1:]))
        return pairs


# ---------------------------------------------------------------------- #
# Round-trip exactness.
# ---------------------------------------------------------------------- #
def test_delta_roundtrip_byte_exact():
    pairs = _snapshot_pairs()
    assert pairs
    for prev, snap in pairs:
        delta = encode_delta(prev, snap)
        rebuilt = apply_delta(prev, delta)
        assert rebuilt.to_json() == snap.to_json()


def test_delta_smaller_than_full():
    pairs = _snapshot_pairs()
    total_delta = sum(encode_delta(p, s).nbytes for p, s in pairs)
    total_full = sum(s.nbytes for _p, s in pairs)
    assert total_delta < total_full


def test_unchanged_components_are_omitted():
    pairs = _snapshot_pairs()
    delta = encode_delta(*pairs[0])
    assert isinstance(delta, DeltaSnapshot)
    # At least one page survived an epoch untouched on some node, and
    # the encoder omitted it.
    kept = [
        1 for p, s in pairs
        for k in p.data["pages"]
        if k in s.data["pages"]
        and k not in encode_delta(p, s).data["pages"]["set"]]
    assert kept


# ---------------------------------------------------------------------- #
# Chain validation.
# ---------------------------------------------------------------------- #
def test_delta_chain_gap_detected():
    pairs = _snapshot_pairs()
    # Find two pairs on the same pid to splice out a link.
    by_pid = {}
    for prev, snap in pairs:
        by_pid.setdefault(prev.pid, []).append((prev, snap))
    pid, chain = next((p, c) for p, c in by_pid.items() if len(c) >= 2)
    g0_prev, _ = chain[0]
    _, g2_snap = chain[1]
    delta_skipping = encode_delta(chain[1][0], g2_snap)
    with pytest.raises(CheckpointError, match="chain gap"):
        apply_delta(g0_prev, delta_skipping)


def test_delta_base_hash_mismatch_detected():
    pairs = _snapshot_pairs()
    prev, snap = pairs[0]
    delta = encode_delta(prev, snap)
    tampered = dict(prev.data)
    tampered["epoch"] = prev.data["epoch"] + 1000
    fake_base = NodeSnapshot(
        {**tampered, "generation": prev.generation})
    with pytest.raises(CheckpointError, match="base mismatch"):
        apply_delta(fake_base, delta)


def test_delta_wrong_pid_rejected():
    pairs = _snapshot_pairs()
    prev, snap = pairs[0]
    other_prev = next(p for p, _s in pairs if p.pid != prev.pid)
    delta = encode_delta(prev, snap)
    with pytest.raises(CheckpointError):
        apply_delta(other_prev, delta)
    with pytest.raises(CheckpointError):
        encode_delta(other_prev, snap)


def test_delta_cannot_load_standalone(tmp_path):
    """A log is one base record, then deltas: a log that starts with a
    delta, or carries a second base, is refused outright."""
    pairs = _snapshot_pairs()
    prev, snap = pairs[0]
    delta = encode_delta(prev, snap)
    path = str(tmp_path / f"ckpt_p{prev.pid}.log")
    durable.append(path, [delta.to_json()])
    with pytest.raises(CheckpointError, match="record 0 .* is a delta"):
        CheckpointManager.load_dir(str(tmp_path))
    durable.append(path, [prev.to_json(), snap.to_json()], fresh=True)
    with pytest.raises(CheckpointError, match="record 1 .* is a base"):
        read_log(path, prev.pid)


# ---------------------------------------------------------------------- #
# Manager behavior end to end.
# ---------------------------------------------------------------------- #
def test_delta_directory_replays_to_full_snapshots(monkeypatch, tmp_path):
    """Every generation folded out of the logs is, byte for byte, the
    snapshot the run took at that cut."""
    d = str(tmp_path / "ckpt")
    taken = _takes(monkeypatch, "water", checkpoint_dir=d)
    folded = _folded(d, 4)
    assert sum(len(snaps) for snaps in folded.values()) == len(taken)
    for snap, _written in taken:
        assert folded[snap.pid][snap.generation].to_json() == snap.to_json()


def test_delta_directory_is_smaller_on_disk(monkeypatch, tmp_path):
    """The logs hold the priced bytes plus one 18-byte frame (hash line
    and two newlines) per record, and far fewer bytes than every
    snapshot written whole."""
    d = str(tmp_path / "ckpt")
    taken = _takes(monkeypatch, "water", checkpoint_dir=d)
    on_disk = sum(os.path.getsize(os.path.join(d, f"ckpt_p{pid}.log"))
                  for pid in range(4))
    priced = sum(written.nbytes for _snap, written in taken)
    assert on_disk == priced + 18 * len(taken)
    assert priced < 0.75 * sum(snap.nbytes for snap, _written in taken)


def test_generation_zero_always_full(tmp_path):
    d = str(tmp_path / "ckpt")
    get_app("sor").run(nprocs=4, checkpoint_dir=d)
    for pid in range(4):
        first, *rest = read_log(os.path.join(d, f"ckpt_p{pid}.log"), pid)
        assert isinstance(first, NodeSnapshot) and first.generation == 0
        assert rest and all(isinstance(r, DeltaSnapshot) for r in rest)


def test_crashy_delta_run_reproduces_crash_free_report():
    spec = get_app("water")
    clean = spec.run(nprocs=4)
    crashy = spec.run(nprocs=4, crash_rate=0.02, crash_seed=3,
                      checkpoint=True)
    assert crashy.crash_stats.crashes > 0
    assert crashy.crash_stats.recoveries_from_checkpoint == \
        crashy.crash_stats.crashes
    assert _report_lines(crashy) == _report_lines(clean)
    assert crashy.unverifiable == []


def test_checkpoint_delta_implies_checkpointing():
    _sys, res = run_app_with_system(
        lambda env: env.barrier(), checkpoint_delta=True)
    assert res.config.checkpointing_enabled
    assert res.crash_stats.checkpoints_written > 0


def test_snapshots_do_not_alias_live_pages():
    """A retained snapshot must freeze barrier-time page contents; the
    node keeps mutating its page lists afterwards (the regression that
    broke delta chains mid-run)."""
    from repro.dsm.cvm import CVM
    from tests.helpers import small_config

    def app(env):
        x = env.malloc(4, name="x")
        env.barrier()           # generation 1 checkpoint
        env.store(x, env.pid + 100)
        env.barrier()

    system = CVM(small_config(nprocs=2, checkpoint=True))
    system.run(app)
    mgr = system.checkpoints
    for pid in range(2):
        snap = mgr.latest(pid)
        text = snap.to_json()
        node = system.nodes[pid]
        for copy in node.pages.values():
            if copy.data is not None:
                copy.data[0] = 424242
        assert snap.to_json() == text
        assert "424242" not in snap.to_json()


# ---------------------------------------------------------------------- #
# Encode once: member texts ⇒ canonical text.
# ---------------------------------------------------------------------- #
def _takes(monkeypatch, name, nprocs=4, **flags):
    """Run ``name`` with checkpoints and return, per take in run order,
    ``(full snapshot, written record)``."""
    from repro.dsm import checkpoint
    taken = []
    snapshot_node = checkpoint.snapshot_node
    take = CheckpointManager.take

    def keeping_snapshot(*args, **kwargs):
        taken.append([snapshot_node(*args, **kwargs), None])
        return taken[-1][0]

    def keeping_take(self, *args, **kwargs):
        written = take(self, *args, **kwargs)
        taken[-1][1] = written
        return written

    monkeypatch.setattr(checkpoint, "snapshot_node", keeping_snapshot)
    monkeypatch.setattr(CheckpointManager, "take", keeping_take)
    get_app(name).run(nprocs=3 if name == "queue_racy" else nprocs,
                      checkpoint=True, **flags)
    return taken


@pytest.mark.parametrize("failover", [False, True],
                         ids=["plain", "coordinator-section"])
@pytest.mark.parametrize("name", sorted(APPLICATIONS) + sorted(EXTRAS))
def test_assembled_text_is_the_canonical_text(monkeypatch, name, failover):
    """A snapshot's text is assembled from member texts, a delta's from
    the same members; both are byte for byte what ``durable.canon`` makes
    of the payload — at generations 0, 1 and last of every node, with and
    without the failover ``coordinator`` section."""
    taken = _takes(monkeypatch, name, master_failover=failover)
    by_pid = {}
    for snap, written in taken:
        by_pid.setdefault(snap.pid, []).append((snap, written))
    assert by_pid
    probed_deltas = 0
    for pid, chain in by_pid.items():
        assert [s.generation for s, _w in chain] == list(range(len(chain)))
        assert ("coordinator" in chain[0][0].data) == failover
        for snap, written in (chain[0], chain[min(1, len(chain) - 1)],
                              chain[-1]):
            is_delta = isinstance(written, DeltaSnapshot)
            assert is_delta == (snap.generation > 0)
            for obj in (snap, written):
                text = obj.to_json()
                assert text == durable.canon(obj.data)
                assert obj.nbytes == len(text.encode("utf-8"))
            probed_deltas += is_delta
    assert probed_deltas


def test_each_component_is_encoded_once(monkeypatch):
    """The encode budget of a water@4 checkpointed run, free of
    timing: the characters ``durable.canon`` produces, summed over the
    run, stay within 1.25x the summed length of the full snapshots taken
    — each page and record once, plus the small scalar fields of the full
    and the delta text: 1.11x here.  (Before member texts, hashing each
    page of both generations, dumping the base again for ``base_hash`` and
    dumping the delta cost 3.26x on this cell, 3.6x on water@8.)"""
    encoded = []
    canon = durable.canon

    def counting_canon(obj):
        text = canon(obj)
        encoded.append(len(text))
        return text

    monkeypatch.setattr(durable, "canon", counting_canon)
    taken = _takes(monkeypatch, "water")
    spent = sum(encoded)
    monkeypatch.setattr(durable, "canon", canon)
    full = sum(len(canon(snap.data)) for snap, _written in taken)
    assert len(taken) >= 8 and any(isinstance(w, DeltaSnapshot)
                                   for _s, w in taken)
    assert spent <= 1.25 * full, (spent, full, spent / full)
    assert spent >= 0.5 * full  # the counter saw the run


def test_superseded_snapshot_holds_no_member_memo(monkeypatch, tmp_path):
    """The member memo lives on each node's latest snapshot only: the
    manager releases it when the next generation supersedes it, in
    ``take`` and when a log is folded."""
    kept = [snap for snap, _written in _takes(
        monkeypatch, "sor", nprocs=2, checkpoint_dir=str(tmp_path))]
    latest = {snap.pid: snap for snap in kept}
    assert len(kept) > len(latest)
    for snap in kept:
        if snap is latest[snap.pid]:
            assert "members" in vars(snap)  # encoded, ready to be a base
        else:
            assert "members" not in vars(snap)
            assert snap.to_json() == durable.canon(snap.data)  # text stays
    for snaps in _folded(str(tmp_path), 2).values():
        assert len(snaps) > 1
        for snap in snaps[:-1]:
            assert "members" not in vars(snap)
