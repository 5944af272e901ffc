"""The production access engine against its per-word spec.

``Env.load`` / ``store`` / ``load_range`` / ``store_range`` decide a warm
access in their own frame, fuse the three charges of an access into one
pre-summed advance and record a range down to ``Bitmap.set_range``;
``tests/dsm/reference_env.py`` is the paper's analysis routine spelled
out one word and one cost category at a time.  *Everything observable*
must match between the two: loaded values, race reports, detector
statistics, access counters, traffic totals, the per-process virtual-time
ledgers, the final runtime, the access trace, pc-watch hits and — under
checkpointing — every byte of every barrier cut's snapshot.  That equality
is what lets Tables 1-3 and Figures 3-4 stay byte-identical to the
instrumentation the paper describes.

Two corpora: every registered application end to end (the cells the
retired ``test_access_path_equivalence.py`` had), and seeded random SPMD
programs sized to hit what the applications rarely do — cold, warm,
page-straddling and multi-page ranges on an unaligned and an aligned
block, empty and one-word ranges, lock pairs, private accesses — under
every configuration that changes a branch of the access path or of its
hook tail.  The last test breaks production on purpose and asserts the
differential notices.
"""

import os
import random
import tempfile
from typing import Any, Dict, List, NamedTuple

import pytest

from tests.dsm.reference_env import reference_engine
from tests.helpers import small_config

from repro.apps.registry import APPLICATIONS, EXTRAS, get_app
from repro.core.bitmap import Bitmap
from repro.dsm import cvm
from repro.dsm.env import YIELD_EVERY
from repro.dsm.page import PageState
from repro.sim.costmodel import CostCategory

ALL_APPS = sorted(APPLICATIONS) + sorted(EXTRAS)


# ---------------------------------------------------------------------- #
# The registered applications, end to end.
# ---------------------------------------------------------------------- #
def paired_runs(app: str, nprocs: int = 8, **overrides):
    spec = get_app(app)
    if app == "queue_racy":
        nprocs = 3
    production = spec.run(nprocs=nprocs, **overrides)
    with reference_engine():
        reference = spec.run(nprocs=nprocs, **overrides)
    return production, reference


def assert_equivalent(production, reference):
    assert [r.key() for r in production.races] == \
        [r.key() for r in reference.races]
    assert production.detector_stats == reference.detector_stats
    assert production.runtime_cycles == reference.runtime_cycles
    assert production.metrics == reference.metrics
    assert production.traffic.total_messages == \
        reference.traffic.total_messages
    assert production.traffic.total_bytes == reference.traffic.total_bytes
    assert len(production.ledgers) == len(reference.ledgers)
    for lp, lr in zip(production.ledgers, reference.ledgers):
        assert lp.totals == lr.totals


@pytest.mark.parametrize("app", ALL_APPS)
def test_production_matches_reference(app):
    assert_equivalent(*paired_runs(app))


@pytest.mark.parametrize("app", ["sor", "water"])
def test_production_matches_reference_16_procs(app):
    assert_equivalent(*paired_runs(app, nprocs=16))


def test_production_matches_reference_detection_off():
    """The uninstrumented baseline (slowdown denominators) must agree too."""
    assert_equivalent(*paired_runs("sor", detection=False))


def test_production_matches_reference_multi_writer_diffs():
    """MW diff mode skips store instrumentation; production must skip the
    charges the spec skips."""
    assert_equivalent(*paired_runs("water", protocol="mw",
                                   diff_write_detection=True))


def test_production_matches_reference_inline_instrumentation():
    """inline mode zeroes the proc-call component of the fused charge."""
    assert_equivalent(*paired_runs("fft", inline_instrumentation=True))


def test_production_matches_reference_under_faults():
    """Fault configs route traffic through the reliable channel; retry
    timeouts interleave with access charges and must still line up."""
    production, reference = paired_runs("tsp", loss_rate=0.05, fault_seed=3)
    assert_equivalent(production, reference)
    assert production.traffic.retransmits == \
        reference.traffic.retransmits > 0


def test_production_matches_reference_under_crashes():
    """Crash configs evaluate a crash point in the hook tail of every
    access call; verdicts must not move."""
    production, reference = paired_runs("water", crash_rate=0.01,
                                        crash_seed=7, checkpoint=True)
    assert_equivalent(production, reference)
    assert production.crash_stats.crashes == \
        reference.crash_stats.crashes > 0


def test_fused_charge_decomposition_matches():
    """The fused in-line charge attributes exactly what the per-category
    advances attribute, category by category."""
    production, reference = paired_runs("sor")
    for cat in (CostCategory.BASE, CostCategory.PROC_CALL,
                CostCategory.ACCESS_CHECK):
        assert production.aggregate_ledger().totals.get(cat, 0.0) == \
            reference.aggregate_ledger().totals.get(cat, 0.0)


# ---------------------------------------------------------------------- #
# Seeded random programs.  16-word pages; block "a" starts five words
# into page 0 (so its page boundaries fall mid-block), block "b" is
# page-aligned.
# ---------------------------------------------------------------------- #
PAGE = 16
PAD, A, A_WORDS, B, B_WORDS = 5, 5, 40, 48, 48
BLOCKS = ((A, A_WORDS), (B, B_WORDS))
SHAPES = ("empty", "one", "in-page", "straddling", "multi-page")
SEEDS = range(30)

#: Configurations that change a branch of the four bodies or of the hook
#: tail.  ``observe`` adds what a dict cannot say: the watched words of
#: "pc-watch", the crash seed and checkpoint directory of the last cell.
CELLS: Dict[str, Dict[str, Any]] = {
    "sw": dict(protocol="sw"),
    "mw-diff": dict(protocol="mw", diff_write_detection=True),
    "detection-off": dict(detection=False),
    "inline": dict(inline_instrumentation=True),
    "trace": dict(track_access_trace=True),
    "pc-watch": dict(),
    "crash-checkpoint": dict(crash_rate=0.03),
}


class Program(NamedTuple):
    nprocs: int
    #: ``phases[k][pid]`` is the op list ``pid`` runs before barrier ``k``.
    phases: List[List[list]]


def pages_touched(addr: int, count: int) -> int:
    return (addr + count - 1) // PAGE - addr // PAGE + 1


def random_range(rng: random.Random, shape: str):
    """(addr, count) of the given shape inside one of the two blocks."""
    base, words = rng.choice(BLOCKS)
    if shape in ("empty", "one"):
        return base + rng.randrange(words), {"empty": 0, "one": 1}[shape]
    want = {"in-page": (1,), "straddling": (2,), "multi-page": (3, 4)}[shape]
    while True:
        start = rng.randrange(words - 1)
        count = rng.randint(2, words - start)
        if pages_touched(base + start, count) in want:
            return base + start, count


def random_op(rng: random.Random, depth: int = 0) -> list:
    roll = rng.random()
    if roll < 0.08:
        return ["private", rng.randint(0, 20)]
    if roll < 0.20 and depth == 0:
        return ["locked", rng.randrange(3),
                [random_op(rng, 1) for _ in range(rng.randint(1, 3))]]
    if roll < 0.60:
        base, words = rng.choice(BLOCKS)
        addr = base + rng.randrange(words)
        if rng.random() < 0.5:
            return ["load", addr]
        return ["store", addr, rng.randrange(4)]
    addr, count = random_range(rng, rng.choice(SHAPES))
    if rng.random() < 0.5:
        return ["load_range", addr, count]
    # Few distinct values: same-value overwrites are what diff-derived
    # write bitmaps cannot see.
    return ["store_range", addr, [rng.randrange(4) for _ in range(count)]]


def program(cell: str, seed: int) -> Program:
    rng = random.Random(f"{cell}-{seed}")
    nprocs = rng.randint(2, 4)
    # In one program of six, one process runs into scheduler yields.
    marathon = rng.randrange(nprocs) if rng.random() < 1 / 6 else None
    return Program(nprocs, [
        [[random_op(rng) for _ in range(
            rng.randint(60, 90) if pid == marathon else rng.randint(0, 12))]
         for pid in range(nprocs)]
        for _phase in range(rng.randint(1, 4))])


def interpret(env, ops: list, seen: list) -> None:
    for op, *args in ops:
        if op == "private":
            env.private_accesses(*args)
        elif op == "locked":
            lid, inner = args
            with env.locked(lid):
                interpret(env, inner, seen)
        elif op in ("store", "store_range"):
            getattr(env, op)(*args, site=f"{op}@{args[0]}")
        else:
            seen.append(getattr(env, op)(*args, site=f"{op}@{args[0]}"))


def spmd(env, prog: Program) -> list:
    env.malloc(PAD, name="pad")
    assert env.malloc(A_WORDS, name="a") == A
    assert env.malloc(B_WORDS, name="b", page_aligned=True) == B
    env.barrier()
    seen: list = []
    for phase in prog.phases:
        interpret(env, phase[env.pid], seen)
        env.barrier()
    return seen


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """Where the checkpointing cell's runs write, a directory each."""
    return tmp_path_factory.mktemp("cuts")


def observe(prog: Program, cell: str, seed: int, scratch) -> Dict[str, Any]:
    """Run ``prog`` under ``cell`` on whatever engine is installed and
    return every observable the engines must agree on."""
    overrides = dict(CELLS[cell])
    if cell == "crash-checkpoint":
        overrides.update(crash_seed=seed,
                         checkpoint_dir=tempfile.mkdtemp(dir=scratch))
    system = cvm.CVM(small_config(nprocs=prog.nprocs, **overrides))
    if cell == "pc-watch":
        system.pc_watch = {addr: [] for addr in range(A, B + B_WORDS, 3)}
    res = system.run(spmd, prog)
    seen = {
        "values": res.results,
        "races": [r.key() for r in res.races],
        "detector_stats": res.detector_stats,
        "runtime_cycles": res.runtime_cycles,
        "ledgers": [ledger.totals for ledger in res.ledgers],
        "metrics": res.metrics,
        "access_trace": res.access_trace,
        "crash_stats": res.crash_stats,
        "pc_watch": system.pc_watch,
    }
    if system.checkpoints is not None:
        # Latest snapshots, and every barrier cut as it was written.
        seen["snapshots"] = system.checkpoints.snapshots()
        written = system.config.checkpoint_dir
        seen["cuts"] = {name: open(os.path.join(written, name), "rb").read()
                        for name in sorted(os.listdir(written))
                        if name.startswith("ckpt_")}
    return seen


def differences(cell: str, seed: int, scratch) -> List[str]:
    """Names of the observables on which the installed ``cvm.Env`` and
    the reference disagree for program ``(cell, seed)``."""
    prog = program(cell, seed)
    production = observe(prog, cell, seed, scratch)
    with reference_engine():
        reference = observe(prog, cell, seed, scratch)
    return [name for name in production
            if production[name] != reference[name]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cell", CELLS)
def test_random_program(cell, seed, scratch):
    assert differences(cell, seed, scratch) == []


def leaves(ops: list):
    """The access and private ops of an op list, lock bodies included."""
    for op in ops:
        if op[0] == "locked":
            yield from op[2]
        else:
            yield op


def words(op: list) -> int:
    if op[0] == "load_range":
        return op[2]
    if op[0] == "store_range":
        return len(op[2])
    return 0 if op[0] == "private" else 1


def test_the_corpus_has_the_shapes_it_promises():
    """Every cell sees every range shape as a load and as a store on both
    blocks, lock pairs, private accesses and 2-, 3- and 4-process runs."""
    assert len(CELLS) * len(SEEDS) >= 200
    for cell in CELLS:
        seen, nprocs = set(), set()
        for seed in SEEDS:
            prog = program(cell, seed)
            nprocs.add(prog.nprocs)
            for phase in prog.phases:
                for ops in phase:
                    seen.update(op[0] for op in ops if op[0] == "locked")
                    for op in leaves(ops):
                        if op[0].endswith("_range"):
                            count = words(op)
                            shape = (SHAPES[count] if count < 2 else SHAPES[
                                min(pages_touched(op[1], count), 3) + 1])
                            seen.add((op[0], "a" if op[1] < B else "b", shape))
                        else:
                            seen.add(op[0])
        assert nprocs == {2, 3, 4}
        assert seen == {"load", "store", "private", "locked"} | {
            (op, block, shape) for op in ("load_range", "store_range")
            for block in "ab" for shape in SHAPES}


def test_the_corpus_reaches_the_hook_tail(scratch):
    """Crashes are injected, watched words are hit, and in every cell
    some process runs past a scheduler yield."""
    crashes = hits = 0
    for seed in SEEDS[:10]:
        prog = program("crash-checkpoint", seed)
        crashes += observe(prog, "crash-checkpoint", seed,
                           scratch)["crash_stats"].crashes
        prog = program("pc-watch", seed)
        seen = observe(prog, "pc-watch", seed, scratch)
        hits += sum(map(len, seen["pc_watch"].values()))
    assert crashes >= 3 and hits >= 100
    for cell in CELLS:
        marathons = 0
        for seed in SEEDS:
            prog = program(cell, seed)
            marathons += any(
                sum(words(op) for phase in prog.phases
                    for op in leaves(phase[pid])) >= YIELD_EVERY
                for pid in range(prog.nprocs))
        assert marathons >= 2, cell


# ---------------------------------------------------------------------- #
# The differential can fail: two broken production engines.
# ---------------------------------------------------------------------- #
class ShortStoreRange(cvm.Env):
    """``store_range`` leaves its last word out of the write bitmap."""

    def store_range(self, addr, values, site=None):
        super().store_range(addr, values, site)
        if values and self.config.detection:
            page, last = divmod(addr + len(values) - 1,
                                self.config.page_size_words)
            bitmaps = self.system.nodes[self.pid].current.write_bitmaps
            short = Bitmap(self.config.page_size_words)
            for off in bitmaps[page].iter_set_bits():
                if off != last:
                    short.set(off)
            bitmaps[page] = short


class WarmLoadSkipsProcCall(cvm.Env):
    """A load of a valid page the interval has already read forgets the
    procedure-call charge."""

    def load(self, addr, site=None):
        node = self.system.nodes[self.pid]
        page = addr // self.config.page_size_words
        copy = node.pages.get(page)
        if (copy is not None and copy.state is not PageState.INVALID
                and page in node.current.read_bitmaps):
            skipped = self.config.cost_model.proc_call
            node.clock.now -= skipped
            node.clock.ledger.slots[CostCategory.PROC_CALL.slot] -= skipped
        return super().load(addr, site)


@pytest.mark.parametrize("mutant,cell,reported", [
    (ShortStoreRange, "sw", "races"),
    (ShortStoreRange, "crash-checkpoint", "cuts"),
    (WarmLoadSkipsProcCall, "sw", "ledgers"),
])
def test_a_broken_engine_is_reported(mutant, cell, reported, monkeypatch,
                                     scratch):
    monkeypatch.setattr(cvm, "Env", mutant)
    assert any(reported in differences(cell, seed, scratch)
               for seed in SEEDS)
