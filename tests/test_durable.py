"""repro.durable: the one implementation of frames, atomic publish, the
append-log writer and reader and the directory lock.

The torn-write fuzz runs here once, against the one implementation; each
record's *policy* on a torn frame (raise, fall back) keeps its own test
beside the record (tests/dsm/test_coordinator.py,
tests/replay/test_record_offline.py).
"""

import ast
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import durable

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

BODIES = [
    durable.canon({"event": "submit", "n": 0, "job": {"app": "fft"}}),
    durable.canon([1, 2.5, "three", None, {"nested": ["\n", "é"]}]),
    "{}",
    "",
]


def _flipped(data: bytes, i: int) -> bytes:
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


# ---------------------------------------------------------------------- #
# Frames.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("body", BODIES)
def test_frame_round_trips(body):
    framed = durable.frame(body)
    assert framed == body + "\n" + durable.digest(body)
    assert durable.unframe(framed) == body


@pytest.mark.parametrize("body", BODIES)
def test_frame_truncated_at_every_byte_is_detected(body):
    framed = durable.frame(body)
    for cut in range(len(framed)):
        assert durable.unframe(framed[:cut]) is None, cut


@pytest.mark.parametrize("body", BODIES)
def test_frame_with_any_one_byte_flipped_is_detected(body):
    data = durable.frame(body).encode("utf-8")
    for i in range(len(data)):
        damaged = _flipped(data, i).decode("utf-8", "replace")
        assert durable.unframe(damaged) is None, i


def test_canon_is_sorted_and_compact():
    assert durable.canon({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    assert durable.content_hash({"b": 1, "a": [1, 2]}) == \
        durable.digest('{"a":[1,2],"b":1}')


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
#: Keys that sort differently as numbers, need escaping, or are not ASCII.
_KEYS = st.sampled_from(["10", "2", "", 'q"uote', "back\\slash", "é", "\n",
                         "\u2028", "a", "A"]) | st.text(max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_KEYS, _JSON, max_size=8))
def test_assemble_over_member_texts_is_canon(d):
    """The helper encode-once checkpoints lean on: an object assembled
    from its members' canonical texts is the canonical text."""
    members = {k: durable.canon(v) for k, v in d.items()}
    assert durable.assemble(members) == durable.canon(d)
    assert durable.assemble(list(members.values())) == \
        durable.canon(list(d.values()))


def test_assemble_sorts_keys_as_canon_does():
    members = {"2": "1", "10": "2", 'q"': "3", "é": "4"}
    assert durable.assemble(members) == '{"10":2,"2":1,"q\\"":3,"\\u00e9":4}'
    assert durable.assemble({}) == "{}" and durable.assemble([]) == "[]"


# ---------------------------------------------------------------------- #
# Atomic publish.
# ---------------------------------------------------------------------- #
def test_publish_replaces_whole_files_and_counts_bytes(tmp_path):
    path = str(tmp_path / "record.json")
    assert durable.publish(path, "é1") == 3
    assert durable.publish(path, "second") == 6
    assert durable.read_text(path) == "second"
    assert os.listdir(tmp_path) == ["record.json"]  # no tmp left behind


def test_failed_publish_keeps_the_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "record.json")
    durable.publish(path, "intact")

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(durable.os, "replace", killed)
    with pytest.raises(OSError):
        durable.publish(path, "half-wr")
    assert durable.read_text(path) == "intact"


class _SiteError(Exception):
    pass


def test_io_errors_are_wrapped_in_the_callers_type(tmp_path):
    missing = str(tmp_path / "nope" / "record.json")
    with pytest.raises(_SiteError, match="cannot read ledger .*record.json"):
        durable.read_text(missing, _SiteError, "ledger")
    with pytest.raises(_SiteError, match="cannot write ledger"):
        durable.publish(missing, "x", _SiteError, "ledger")
    with pytest.raises(OSError):
        durable.read_text(missing)


# ---------------------------------------------------------------------- #
# Append log.
# ---------------------------------------------------------------------- #
def _decode(body, index):
    if not body.startswith(f"{index}:"):
        raise ValueError("out of sequence")
    return body


def _log(bodies):
    """The bytes of an append log holding ``bodies``, one frame and its
    terminating newline each — what the coordinator journal appends."""
    log = bytearray()
    durable.append(log, bodies)
    return bytes(log)


def test_append_frames_each_body_into_a_buffer_or_a_file(tmp_path):
    log = bytearray(b"kept")
    assert durable.append(log, ["a", "é"]) == len(log) - 4
    assert log == ("kept" + durable.frame("a") + "\n"
                   + durable.frame("é") + "\n").encode()
    assert durable.append(log, []) == 0
    path = str(tmp_path / "ckpt.log")
    assert durable.append(path, ["a"]) == 19  # created: body + 18
    durable.append(path, ["é"])
    with open(path, "rb") as fh:
        assert fh.read() == bytes(log[4:])
    durable.append(path, ["b"], fresh=True)  # started over
    with open(path, "rb") as fh:
        assert fh.read() == (durable.frame("b") + "\n").encode()
    with pytest.raises(_SiteError, match="cannot write ckpt log"):
        durable.append(str(tmp_path / "nope" / "x.log"), ["a"],
                       error=_SiteError, what="ckpt log")


def _numbered_log(n):
    return _log([f"{i}:payload-{'x' * i}" for i in range(n)])


def _record_ends(data: bytes):
    """Byte offset just past each record's terminating newline."""
    ends, newlines = [], 0
    for offset, byte in enumerate(data):
        if byte == 0x0A:
            newlines += 1
            if newlines % 2 == 0:
                ends.append(offset + 1)
    return ends


def test_log_truncated_at_every_byte_replays_the_intact_prefix():
    data = _numbered_log(4)
    ends = _record_ends(data)
    assert len(ends) == 4 and ends[-1] == len(data)
    for cut in range(len(data) + 1):
        intact = sum(1 for end in ends if end <= cut)
        records, dropped, intact_bytes = durable.parse_log(data[:cut],
                                                           _decode)
        assert [r.split(":")[0] for r in records] == \
            [str(i) for i in range(intact)], cut
        assert (dropped == 0) == (cut in [0] + ends), cut
        # Where a caller cuts the torn tail back to.
        assert intact_bytes == ([0] + ends)[intact], cut


def test_log_with_any_one_byte_flipped_replays_the_records_before_it():
    data = _numbered_log(4)
    ends = _record_ends(data)
    for i in range(len(data)):
        records, dropped, _ = durable.parse_log(_flipped(data, i), _decode)
        assert len(records) == sum(1 for end in ends if end <= i), i
        assert dropped > 0


def test_log_stops_at_a_record_the_caller_refuses():
    data = _log(["0:a", "7:out of sequence", "2:c"])
    records, dropped, _ = durable.parse_log(data, _decode)
    assert records == ["0:a"] and dropped == 4


def test_missing_log_is_empty():
    """A journal nothing was appended to yet holds no records."""
    assert durable.parse_log(b"", _decode) == ([], 0, 0)


# ---------------------------------------------------------------------- #
# The lock.
# ---------------------------------------------------------------------- #
def test_second_taker_learns_the_holders_note(tmp_path):
    path = str(tmp_path / "LOCK")
    first = durable.FileLock(path)
    first.note = "run 17"
    with pytest.raises(durable.LockHeld) as exc_info:
        durable.FileLock(path)
    assert exc_info.value.holder == "run 17"
    first.close()
    first.close()  # idempotent
    second = durable.FileLock(path)
    assert second.note == "run 17"  # the note outlives its writer
    second.note = "9"
    assert second.note == "9"
    second.close()


# ---------------------------------------------------------------------- #
# Layering (static: importing repro.dsm pulls cvm in transitively).
# ---------------------------------------------------------------------- #
def _imported_modules(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_durable_imports_nothing_from_repro():
    names = list(_imported_modules(os.path.join(SRC, "durable.py")))
    assert names
    assert not [n for n in names if n.split(".")[0] == "repro"]


@pytest.mark.parametrize("package", ["replay"])
def test_no_durable_record_reaches_into_the_checkpoint_module(package):
    directory = os.path.join(SRC, package)
    modules = [name for name in sorted(os.listdir(directory))
               if name.endswith(".py")]
    assert modules
    for name in modules:
        names = _imported_modules(os.path.join(directory, name))
        assert not [n for n in names
                    if n.startswith("repro.dsm.checkpoint")], name
