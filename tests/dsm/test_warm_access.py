"""The warm access path of ``Env``: decided in the ``Env`` frame, never
wrong about when the protocol or the interval must be asked.

A warm ``load`` / ``store`` / ``load_range`` / ``store_range`` skips
``Protocol.ensure_*`` when the node's copy is valid (writable for a
store) and ``Interval.record_*`` when the open interval already holds
the page's bitmap.  These tests hold the two shortcuts to the code they
bypass: the page test to ``ensure_*`` itself over every page state, the
node indirection to invalidation and recovery, the closed-interval check
to ``record_*``'s error, and the bitmap shortcut to the invariant it
rests on (a bitmap implies its notice).
"""

import itertools
import random

import pytest

from repro.dsm.checkpoint import restore_node
from repro.dsm.cvm import CVM
from repro.dsm.page import PageState
from tests.helpers import run_app, run_app_with_system, small_config

PROTOCOLS = [dict(protocol="sw"),
             dict(protocol="mw", diff_write_detection=True)]
IDS = ["sw", "mw+diff"]
PSZ = 16  # tests.helpers.small_config


# ---------------------------------------------------------------------- #
# (a) The page test is ensure_*'s own no-side-effect condition.
# ---------------------------------------------------------------------- #
def _observable(proto, node, page):
    current = node.current
    return (proto.faults_read, proto.faults_write, proto.soft_faults,
            node.clock.now, page in current.write_pages,
            page in current.read_pages, len(node.twinned_pages))


def _dress(node, page, state, has_data, has_twin):
    copy = node.page_copy(page)
    copy.state = state
    copy.data = [0] * PSZ if has_data else None
    copy.twin = [0] * PSZ if has_twin else None


@pytest.mark.parametrize("flags", PROTOCOLS, ids=IDS)
def test_env_enters_the_protocol_exactly_when_it_would_act(flags):
    """For every ``PageState`` × ``data is None`` × ``twin`` combination
    and each of the four operations: ``Env`` calls ``ensure_readable`` /
    ``ensure_writable`` iff that call, made directly on an identically
    dressed page, touches a fault counter, the clock, the interval's
    notices or the twin list."""
    combos = list(itertools.product(PageState, (True, False), (True, False)))
    ops = ("load", "store", "load_range", "store_range")

    def app(env):
        base = env.malloc(2 * len(combos) * len(ops) * PSZ, name="probe",
                          page_aligned=True)
        if env.pid == 0:
            return None
        node, proto = env._node, env.system.protocol
        entered = []
        reads, writes = env._ensure_readable, env._ensure_writable
        env._ensure_readable = lambda *a: entered.append("r") or reads(*a)
        env._ensure_writable = lambda *a: entered.append("w") or writes(*a)
        verdicts = []
        pages = itertools.count(base // PSZ)
        for (state, has_data, has_twin), op in itertools.product(combos, ops):
            is_write = op.startswith("store")
            # The definition: does ensure_* act on a page dressed so?
            page = next(pages)
            _dress(node, page, state, has_data, has_twin)
            before = _observable(proto, node, page)
            if is_write:
                proto.ensure_writable(node, page, 3)
            else:
                proto.ensure_readable(node, page)
            acts = _observable(proto, node, page) != before
            # The engine: does Env ask, on a fresh page dressed the same?
            page = next(pages)
            _dress(node, page, state, has_data, has_twin)
            del entered[:]
            addr = page * PSZ + 3
            args = {"load": (addr,), "store": (addr, 9),
                    "load_range": (addr, 2), "store_range": (addr, [9, 9])}
            try:
                getattr(env, op)(*args[op])
            except TypeError:
                # WRITABLE without data: ensure_writable returns it as it
                # is, and the data access fails — warm or not.
                assert is_write and not has_data and not acts
            verdicts.append(((state.value, has_data, has_twin, op),
                             bool(entered), acts))
        return verdicts

    verdicts = run_app(app, nprocs=2, segment_words=1 << 14,
                       **flags).results[1]
    assert len(verdicts) == 48
    for combo, entered, acts in verdicts:
        assert entered == acts, combo
    # Both outcomes occur for reads and for writes.
    assert {(c[3].startswith("store"), e) for c, e, _ in verdicts} == \
        set(itertools.product((True, False), repeat=2))


# ---------------------------------------------------------------------- #
# (b) Pages and interval are read through the node.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("flags", PROTOCOLS, ids=IDS)
def test_invalidated_and_restored_pages_fault_again(flags):
    """A warm copy invalidated in place by ``apply_write_notice``, and one
    replaced wholesale by ``restore_node`` (with the interval) when the
    crashed node reinstalls its checkpoint, both fault on the next access
    and read the fetched data; the access lands in the restored interval."""
    def app(env):
        x = env.malloc(4, name="x")
        page, off = divmod(x, PSZ)
        node, proto = env._node, env.system.protocol
        if env.pid == 0:
            env.store(x, 5)
        env.barrier()
        if env.pid == 1:
            assert env.load(x) == 5                       # cold: fetched
            faults = proto.faults_read
            assert env.load(x) == 5 and env.load_range(x, 2) == [5, 0]
            assert proto.faults_read == faults            # warm
        env.barrier()
        if env.pid == 0:
            env.store(x, 6)
        env.barrier()  # P0's notice reaches P1; P1 "crashes" arriving here
        if env.pid == 1:
            copy = node.pages[page]
            assert copy.state is PageState.INVALID and copy.data is None
            faults = proto.faults_read
            assert env.load(x) == 6 and proto.faults_read == faults + 1
            assert env.load(x) == 6 and proto.faults_read == faults + 1
            # The recovery the barrier charged for, carried out: the
            # checkpoint taken at the departure holds the page invalid.
            stale_pages, stale_interval = node.pages, node.current
            restore_node(env.system.checkpoints.latest(1), node,
                         env.system.store)
            assert node.pages is not stale_pages
            assert node.current is not stale_interval
            assert env.load_range(x, 2) == [6, 0]
            assert proto.faults_read == faults + 2
            assert node.pages[page].data is not copy.data
            assert node.current.read_bitmaps[page].test(off)
            env.store(x + 1, 7)                           # write fault
            assert node.pages[page].data[off + 1] == 7
            assert page in node.current.write_pages
        env.barrier()
        return env.load(x + 1)

    system, res = run_app_with_system(
        app, nprocs=2, checkpoint=True, crash_at=((1, 2),), **flags)
    assert res.results == [7, 7]
    assert system.crash_stats.recoveries_from_checkpoint == 1


# ---------------------------------------------------------------------- #
# (c) A closed interval refuses warm accesses as record_* does.
# ---------------------------------------------------------------------- #
def test_closed_interval_rejects_every_warm_operation():
    def app(env):
        x = env.malloc(8, name="x")
        env.store_range(x, [1, 2, 3, 4])
        env.load_range(x, 4)          # warm: both bitmaps in the interval
        current = env._node.current
        with pytest.raises(ValueError) as reference:
            closed = type(current)(0, 1, current.vc, 0, PSZ)
            closed.close()
            closed.record_read(0, 0)
        current.close()
        messages = []
        for op, args in (("load", (x,)), ("store", (x, 9)),
                         ("load_range", (x + 1, 2)),
                         ("store_range", (x + 1, [9, 9]))):
            with pytest.raises(ValueError) as err:
                getattr(env, op)(*args)
            messages.append(str(err.value))
        current.closed = False        # let the final barrier close it
        return messages, str(reference.value)

    (messages, reference), = run_app(app, nprocs=1).results
    assert all(m.endswith("is closed") for m in messages + [reference])
    assert len(set(messages)) == 1


# ---------------------------------------------------------------------- #
# (d) Bitmap ⇒ notice, the invariant the bitmap shortcut rests on.
# ---------------------------------------------------------------------- #
def _holds_notices(interval):
    return (set(interval.read_bitmaps) <= interval.read_pages
            and set(interval.write_bitmaps) <= interval.write_pages)


@pytest.mark.parametrize("flags", [dict(protocol="sw"), dict(protocol="mw"),
                                   PROTOCOLS[1]], ids=["sw", "mw", "mw+diff"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_bitmap_implies_its_notice(flags, seed):
    """Seeded loads, stores, ranges, locks and barriers over four pages:
    after every access the open interval, and after every close (hence
    after any §6.5 ``merge_write_bitmap``) the closed record, name in
    their notice lists every page they hold a bitmap for — including the
    pages whose write notice came from ``ensure_writable``'s
    ``bitmap=False`` insert."""
    words = 4 * PSZ
    closed_records = []

    def app(env):
        base = env.malloc(words, name="field", page_aligned=True)
        rng = random.Random(seed * 31 + env.pid)
        node = env._node
        for step in range(120):
            addr = base + rng.randrange(words)
            count = rng.randrange(1, min(2 * PSZ, base + words - addr) + 1)
            op = rng.randrange(8)
            if op == 0:
                env.load(addr)
            elif op == 1:
                env.store(addr, step)
            elif op == 2:
                env.load_range(addr, count)
            elif op == 3:
                env.store_range(addr, [step] * count)
            elif op == 4:
                with env.locked(rng.randrange(2)):
                    env.store(addr, env.load(addr) + 1)
            elif op == 5 and step % 3 == 0:
                env.lock(7)
                env.unlock(7)
            assert _holds_notices(node.current), (step, node.current)
        env.barrier()

    def checked(real):
        def on_interval_closed(node, closed):
            real(node, closed)
            closed_records.append(closed)
            assert _holds_notices(closed), closed
        return on_interval_closed

    system = CVM(small_config(nprocs=3, seed=seed, policy="random", **flags))
    system.protocol.on_interval_closed = checked(
        system.protocol.on_interval_closed)
    system.run(app)
    stats = system.protocol.stats()
    assert stats["soft_faults"] + stats["write_faults"] > 0
    assert any(rec.write_bitmaps for rec in closed_records)
    if flags.get("diff_write_detection"):
        assert stats["diffs_created"] > 0   # merges happened
    else:
        # Instrumented writes: the notice-only insert and the bitmap
        # insert name the same pages.
        assert all(set(rec.write_bitmaps) == rec.write_pages
                   for rec in closed_records)
