"""The seam contract of ``CVM``: every layer boundary is an instance lookup.

``benchmarks/spine/trace.py`` (and any tracer after it) observes a run by
replacing names on one live ``CVM`` *after* ``CVM.__init__`` has returned:
the protocol's fault and notice entry points, the five synchronization
operations on the system itself, the transport's (and reliable channel's)
``send``, ``CheckpointManager.take``, the scheduler's park points, the
detector's epoch steps and ``store.discard_epoch``.  That only works if
nothing built during construction holds on to a bound method of one of
them.  Here each name gets a counting wrapper after construction, a small
lock + event + barrier program runs, and the counts must equal what the
result reports through its own counters — a caller that bypassed the
instance would leave its wrapper short.

The second half pins the import direction the decomposition rests on:
``repro.dsm.cvm`` imports its collaborators, never the reverse.
"""

import ast
import collections
import os

import pytest

import repro.dsm
from repro.dsm.cvm import CVM
from tests.helpers import small_config

NPROCS = 4
LOCK_ROUNDS = 3
#: The program's two explicit barriers and the final one ``CVM`` issues.
BARRIERS = 3

#: object (attribute path from the system, "" for the system) -> names,
#: as ``Tracer.install`` wraps them.
SEAMS = {
    "protocol": ("ensure_readable", "ensure_writable", "apply_write_notice",
                 "on_interval_closed"),
    "": ("lock_acquire", "lock_release", "barrier", "event_set",
         "event_wait"),
    "transport": ("send",),
    "checkpoints": ("take",),
    "scheduler": ("yield_control", "block", "run"),
    "detector": ("run_epoch", "plan_shards", "compute_shard",
                 "commit_sharded"),
    "store": ("discard_epoch",),
}


def program(env):
    psz = env.config.page_size_words
    x = env.malloc(2 * psz, name="x", page_aligned=True)
    for it in range(LOCK_ROUNDS):
        with env.locked(it % 2):  # one falsely shared page, two locks
            env.store(x + env.pid, env.load(x + env.pid) + 1)
    env.barrier()
    if env.pid == 0:
        env.store(x + psz, 7)
        env.set_event(1)
    else:
        env.wait_event(1)
        env.load(x + psz)
    env.barrier()
    env.store(x + psz + 1, env.pid)  # a write-write race in the last epoch


def counted_run(**flags):
    """Run ``program`` on a system whose seams were wrapped *after*
    construction; returns (system, result, calls per wrapped name, the
    datagrams the wrapped ``transport.send`` returned)."""
    system = CVM(small_config(nprocs=NPROCS, **flags))
    calls = collections.Counter()
    datagrams = []

    def wrap(obj, path, name):
        inner = getattr(obj, name)

        def counting(*args, **kwargs):
            calls[f"{path}.{name}".lstrip(".")] += 1
            out = inner(*args, **kwargs)
            if name == "send":
                datagrams.append(out.nfragments)
            return out
        setattr(obj, name, counting)

    for path, names in SEAMS.items():
        obj = getattr(system, path) if path else system
        if obj is not None:
            for name in names:
                wrap(obj, path, name)
    return system, system.run(program), calls, sum(datagrams)


def check_common(system, res, calls, datagrams):
    assert res.metrics["dsm.sync.barriers"] == BARRIERS
    assert res.metrics["dsm.sync.lock_acquires"] == NPROCS * LOCK_ROUNDS
    assert (calls["lock_acquire"] == calls["lock_release"]
            == res.metrics["dsm.sync.lock_acquires"])
    assert calls["barrier"] == res.metrics["dsm.sync.barriers"] * NPROCS
    assert calls["event_set"] == 1
    assert calls["event_wait"] == NPROCS - 1
    # Every datagram on the wire left through the wrapped ``send``.
    assert datagrams == res.traffic.total_messages > 0
    m = res.metrics
    assert (calls["protocol.ensure_readable"]
            >= m["dsm.protocol.read_faults"] > 0)
    assert (calls["protocol.ensure_writable"]
            >= m["dsm.protocol.write_faults"] + m["dsm.protocol.soft_faults"]
            > 0)
    assert m["dsm.protocol.invalidations"] > 0
    assert calls["protocol.apply_write_notice"] > 0
    # An interval record is created when its interval closes.
    assert (calls["protocol.on_interval_closed"]
            == res.metrics["dsm.interval.created"])
    assert calls["scheduler.run"] == 1
    assert calls["scheduler.yield_control"] == sum(
        p.yields for p in system.scheduler.processes.values())
    assert calls["scheduler.block"] > 0
    # The checked epoch, and from the second barrier on its predecessor's
    # stragglers.
    assert (calls["store.discard_epoch"]
            == 2 * res.metrics["dsm.sync.barriers"] - 1)
    assert res.races


def test_counts_match_the_result_plain():
    system, res, calls, datagrams = counted_run()
    check_common(system, res, calls, datagrams)
    assert (calls["detector.run_epoch"]
            == res.detector_stats.epochs_checked == BARRIERS)
    assert calls["detector.plan_shards"] == 0


def test_counts_match_the_result_sharded():
    system, res, calls, datagrams = counted_run(sharded_detection=True)
    check_common(system, res, calls, datagrams)
    sh = res.sharding_stats
    assert sh.epochs_sharded > 0
    assert calls["detector.plan_shards"] == BARRIERS
    assert calls["detector.commit_sharded"] == sh.epochs_sharded
    assert calls["detector.run_epoch"] == sh.epochs_centralized
    assert sh.epochs_sharded + sh.epochs_centralized == BARRIERS
    # One compute per non-empty shard, plus the coordinator's when its own
    # slice came out empty (it is the reduce root either way).
    assert (sh.shards_dispatched <= calls["detector.compute_shard"]
            <= sh.shards_dispatched + sh.epochs_sharded)
    assert res.detector_stats.epochs_checked == BARRIERS


def test_counts_match_the_result_checkpointing(tmp_path):
    system, res, calls, datagrams = counted_run(
        checkpoint_dir=str(tmp_path / "ckpt"))
    check_common(system, res, calls, datagrams)
    # The pre-application cut and one per barrier departure, per node.
    assert (calls["checkpoints.take"]
            == res.crash_stats.checkpoints_written
            == NPROCS * (BARRIERS + 1))
    assert calls["detector.run_epoch"] == BARRIERS


# ---------------------------------------------------------------------- #
# Import direction.
# ---------------------------------------------------------------------- #
def runtime_imports(path):
    """Module names ``path`` imports outside ``if TYPE_CHECKING:`` blocks
    (function-level imports included)."""
    with open(path) as fh:
        tree = ast.parse(fh.read())

    def walk(node):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            for child in node.orelse:
                yield from walk(child)
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
    return set(walk(tree))


def dsm_modules():
    root = os.path.dirname(repro.dsm.__file__)
    return sorted(name for name in os.listdir(root)
                  if name.endswith(".py") and name not in ("cvm.py",
                                                           "__init__.py"))


def test_the_fixture_sees_a_runtime_import():
    root = os.path.dirname(repro.dsm.__file__)
    assert "repro.dsm.cvm" in runtime_imports(
        os.path.join(root, "__init__.py"))


@pytest.mark.parametrize("module", dsm_modules())
def test_no_dsm_module_imports_the_facade(module):
    root = os.path.dirname(repro.dsm.__file__)
    assert "repro.dsm.cvm" not in runtime_imports(os.path.join(root, module))
