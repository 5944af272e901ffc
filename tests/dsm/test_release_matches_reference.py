"""Production consistency shipping against its one-record-at-a-time spec.

``Synchronizer.consistency_payload`` summarizes each owner's range of
missing records once (the barrier release pass shares the summaries
across receivers) and ``apply_write_notices`` applies the union of a
receiver's write pages page by page; ``tests/dsm/reference_release.py``
ships, prices and applies record by record.  On seeded random programs —
lock-only, barrier-only, event and mixed, 2 to 32 pids, under the sw and
mw protocols, with crashes and checkpoints, and with a coordinator that
dies — both must leave the same page states, protocol counters, traffic,
per-pid ledgers and reports behind.  The last tests break production on
purpose and assert the differential notices.
"""

import random
import types
from typing import Any, Dict, List, NamedTuple

import pytest

from repro.dsm import sync as sync_module
from repro.dsm.cvm import CVM
from repro.dsm.page import PageState
from repro.dsm.protocol import Protocol
from repro.dsm.vector_clock import VectorClock
from tests.dsm.reference_release import (apply_write_notice,
                                         reference_shipping, unseen)
from tests.helpers import small_config

PAGE = 16
WORDS = 6 * PAGE
KINDS = ("locks", "barriers", "events", "mixed")
SEEDS = range(5)

CELLS: Dict[str, Dict[str, Any]] = {
    "sw": dict(protocol="sw"),
    "mw": dict(protocol="mw"),
    "crash-checkpoint": dict(crash_rate=0.03, checkpoint=True),
    "failover": dict(master_failover=True, crash_at=((0, 1),),
                     checkpoint=True),
}


class Program(NamedTuple):
    nprocs: int
    kind: str
    #: ``phases[k][pid]``: the op list ``pid`` runs in phase ``k``.
    phases: List[List[list]]


def access(rng: random.Random) -> list:
    addr = rng.randrange(WORDS)
    if rng.random() < 0.5:
        return ["load", addr]
    return ["store", addr, rng.randrange(4)]


def random_ops(rng: random.Random, kind: str, count: int) -> list:
    locks = kind in ("locks", "mixed")
    return [["locked", rng.randrange(3),
             [access(rng) for _ in range(rng.randint(1, 3))]]
            if locks and rng.random() < 0.35 else access(rng)
            for _ in range(count)]


def program(kind: str, cell: str, seed: int) -> Program:
    rng = random.Random(f"{kind}-{cell}-{seed}")
    nprocs = rng.choice((2, 3, 5, 8, 16, 32))
    per_pid = max(2, 48 // nprocs)
    nphases = 1 if kind == "locks" else rng.randint(2, 3)
    phases = []
    for _phase in range(nphases):
        phase = []
        for _pid in range(nprocs):
            ops = random_ops(rng, kind, rng.randint(1, per_pid))
            if kind in ("events", "mixed"):
                # Set this phase's own event before waiting on another
                # pid's: every wait is eventually satisfied.
                cut = rng.randint(0, len(ops))
                ops[cut:cut] = [["set"], ["wait", rng.randrange(nprocs)]]
            phase.append(ops)
        phases.append(phase)
    return Program(nprocs, kind, phases)


def interpret(env, ops: list, phase: int) -> None:
    for op, *args in ops:
        if op == "locked":
            lid, inner = args
            with env.locked(lid):
                interpret(env, inner, phase)
        elif op == "set":
            env.set_event(phase * env.system.config.nprocs + env.pid)
        elif op == "wait":
            env.wait_event(phase * env.system.config.nprocs + args[0])
        elif op == "store":
            env.store(*args)
        else:
            env.load(*args)


def spmd(env, prog: Program) -> None:
    assert env.malloc(WORDS, name="field", page_aligned=True) == 0
    env.barrier()
    for k, phase in enumerate(prog.phases):
        interpret(env, phase[env.pid], k)
        if prog.kind != "locks":
            env.barrier()


def observe(prog: Program, cell: str, seed: int) -> Dict[str, Any]:
    """Run ``prog`` under ``cell`` with whatever shipping is installed and
    return every observable the two must agree on."""
    overrides = dict(CELLS[cell])
    if cell == "crash-checkpoint":
        overrides["crash_seed"] = seed
    system = CVM(small_config(nprocs=prog.nprocs, segment_words=WORDS,
                              **overrides))
    res = system.run(spmd, prog)
    return {
        "races": [r.key() for r in res.races],
        "unverifiable": [r.key() for r in res.unverifiable],
        "detector_stats": res.detector_stats,
        "metrics": res.metrics,
        "traffic": {name: dict(value) if isinstance(value, dict) else value
                    for name, value in vars(res.traffic).items()},
        "ledgers": [ledger.totals for ledger in res.ledgers],
        "runtime_cycles": res.runtime_cycles,
        "pages": [{page: (copy.state, copy.data, copy.twin)
                   for page, copy in sorted(node.pages.items())}
                  for node in system.nodes],
        "crash_stats": res.crash_stats,
        "failover_stats": res.failover_stats,
    }


def differences(kind: str, cell: str, seed: int) -> List[str]:
    prog = program(kind, cell, seed)
    production = observe(prog, cell, seed)
    with reference_shipping():
        reference = observe(prog, cell, seed)
    return [key for key in reference if production[key] != reference[key]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("kind", KINDS)
def test_shipping_matches_the_reference(kind, cell, seed):
    assert differences(kind, cell, seed) == []


def test_the_corpus_exercises_what_it_promises():
    sizes, seen = set(), set()
    for kind in KINDS:
        for cell in CELLS:
            for seed in SEEDS:
                prog = program(kind, cell, seed)
                sizes.add(prog.nprocs)
                if cell == "mw":
                    continue
                obs = observe(prog, cell, seed)
                if obs["metrics"]["dsm.protocol.invalidations"]:
                    seen.add(f"{kind} invalidates")
                if obs["failover_stats"].elections_held:
                    seen.add("election")
                if obs["crash_stats"].recoveries_from_checkpoint:
                    seen.add("recovery")
    assert {2, 32} <= sizes
    assert seen == {f"{kind} invalidates" for kind in KINDS} | {
        "election", "recovery"}


# ---------------------------------------------------------------------- #
# A receiver whose clock misses its own records.  No run ships a process
# its own records (its clock always covers them), so the rule that they
# invalidate nothing is held to the spec directly: at the first release
# pass of an mw run, each receiver is handed everything the store holds,
# its own records included, on a copy of its page table.
# ---------------------------------------------------------------------- #
def own_records_outcomes(apply) -> List[Any]:
    """``apply(sync, node, have, upto)`` on a copy of every receiver's
    page table at the first release pass; the tables and invalidation
    counts it leaves."""
    system = CVM(small_config(nprocs=4, protocol="mw", segment_words=WORDS))
    sync = system.sync
    release_pass = sync._barrier_release_pass
    outcomes: List[Any] = []

    def checked(bar, master_node):
        if not outcomes:
            zero = VectorClock.zero(system.config.nprocs)
            for node in system.nodes:
                pages = {page: types.SimpleNamespace(**{
                    slot: getattr(copy, slot) for slot in copy.__slots__})
                    for page, copy in node.pages.items()}
                for copy in pages.values():
                    copy.drop_twin = lambda copy=copy: setattr(
                        copy, "twin", None)
                clone = types.SimpleNamespace(pid=node.pid, pages=pages)
                before = system.protocol.invalidations
                apply(sync, clone, zero, master_node.vc)
                outcomes.append((
                    system.protocol.invalidations - before,
                    {page: (c.state, c.data) for page, c in pages.items()}))
                system.protocol.invalidations = before
        return release_pass(bar, master_node)

    def app(env):
        # Each pid alone writes the page homed at the next pid, and all of
        # them write page 4: under mw a written copy stays valid at its
        # writer, and only another writer's notice invalidates it.
        env.store((env.pid + 1) % 4 * PAGE + env.pid, env.pid + 1)
        env.store(4 * PAGE + env.pid, env.pid + 1)
        env.barrier()

    sync._barrier_release_pass = checked
    system.run(app)
    return outcomes


def production_apply(sync, node, have, upto):
    sync.apply_write_notices(node, sync.consistency_payload(have, upto)[0])


def reference_apply(sync, node, have, upto):
    for rec in unseen(sync.store, have, upto):
        apply_write_notice(sync.protocol, node, rec)


def test_own_records_invalidate_nothing():
    production = own_records_outcomes(production_apply)
    assert production == own_records_outcomes(reference_apply)
    # Every receiver kept its valid copy of the page only it wrote, and
    # lost the one another writer's notice named.
    for pid, (_count, pages) in enumerate(production):
        assert pages[(pid + 1) % 4][0] is not PageState.INVALID
        if pid != 0:  # page 4's home
            assert pages[4][0] is PageState.INVALID


# ---------------------------------------------------------------------- #
# The differential can fail: two broken production passes.
# ---------------------------------------------------------------------- #
def union_keeps_own_records(self, node, summaries):
    """Unites every summary's pages, the receiver's own included."""
    pages = set()
    for summary in summaries:
        pages |= summary[5]
    if pages:
        self.protocol.apply_write_notice(node, pages)


def notice_ignores_kept_copies(self, node, pages):
    """Invalidates even the copy the protocol must keep (the sw owner's,
    the mw home's)."""
    for page_id in pages:
        copy = node.pages.get(page_id)
        if copy is None or copy.state is PageState.INVALID:
            continue
        self.invalidations += 1
        copy.state = PageState.INVALID
        copy.data = None
        copy.drop_twin()


def test_a_union_with_own_records_is_caught(monkeypatch):
    reference = own_records_outcomes(reference_apply)
    monkeypatch.setattr(sync_module.Synchronizer, "apply_write_notices",
                        union_keeps_own_records)
    assert own_records_outcomes(production_apply) != reference


@pytest.mark.parametrize("cell", ["sw", "mw"])
def test_a_pass_that_skips_kept_copies_is_caught(cell, monkeypatch):
    monkeypatch.setattr(Protocol, "apply_write_notice",
                        notice_ignores_kept_copies)
    assert any("pages" in differences(kind, cell, seed)
               for kind in KINDS for seed in SEEDS)
