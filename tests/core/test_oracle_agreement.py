"""The central soundness/completeness check.

Paper §2: "our system will detect all data races that occur during a given
execution" — and nothing else.  We verify this mechanically: random small
SPMD programs are generated (stores, loads, lock-protected sections,
barrier-separated phases), executed with full access tracing, and the
online detector's race set is compared — exactly, at (kind, word,
interval-pair) granularity — against two independent oracles:

* a brute-force per-access happens-before detector, and
* the Adve-style post-mortem interval analysis.

Any divergence in either direction (missed race or phantom race) fails.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import online_race_keys, run_app_with_system

from repro.core.baseline import HappensBeforeDetector, PostMortemAnalyzer

#: Shared words available to generated programs (2 pages of 16 words).
NWORDS = 32
NLOCKS = 3


def generate_program(seed: int, nprocs: int, phases: int, ops_per_phase: int):
    """Build per-process op lists: each phase ends with a barrier; ops are
    ("load", addr) / ("store", addr) / ("locked", lid, [ops...])."""
    rng = random.Random(seed)
    program = {pid: [] for pid in range(nprocs)}
    for _phase in range(phases):
        for pid in range(nprocs):
            ops = []
            for _ in range(rng.randrange(ops_per_phase + 1)):
                roll = rng.random()
                addr = rng.randrange(NWORDS)
                if roll < 0.35:
                    ops.append(("store", addr))
                elif roll < 0.7:
                    ops.append(("load", addr))
                else:
                    lid = rng.randrange(NLOCKS)
                    inner = []
                    for _ in range(rng.randrange(1, 4)):
                        a = rng.randrange(NWORDS)
                        inner.append(("store" if rng.random() < 0.5
                                      else "load", a))
                    ops.append(("locked", lid, inner))
            program[pid].append(ops)
    return program


def run_program(program, nprocs, seed, **config):
    def app(env):
        base = env.malloc(NWORDS, name="arena")
        env.barrier()
        for phase_ops in program[env.pid]:
            for op in phase_ops:
                _execute(env, base, op)
            env.barrier()

    return run_app_with_system(
        app, nprocs=nprocs, track_access_trace=True,
        policy="random", seed=seed, **config)


def _execute(env, base, op):
    if op[0] == "store":
        env.store(base + op[1], env.pid + 1)
    elif op[0] == "load":
        env.load(base + op[1])
    else:
        _kind, lid, inner = op
        env.lock(lid)
        for sub in inner:
            _execute(env, base, sub)
        env.unlock(lid)


def _compare(seed: int, nprocs: int, phases: int, ops: int,
             sched_seed: int, **config) -> None:
    program = generate_program(seed, nprocs, phases, ops)
    system, result = run_program(program, nprocs, sched_seed, **config)
    online = online_race_keys(result)
    hb = HappensBeforeDetector(system.store.vc_log)
    oracle = hb.races(result.access_trace)
    assert online == oracle, (
        f"online != happens-before oracle for seed={seed}: "
        f"missed={sorted(oracle - online)[:5]} "
        f"phantom={sorted(online - oracle)[:5]}")
    pm = PostMortemAnalyzer(system.store.vc_log)
    assert pm.races(result.access_trace) == oracle


@pytest.mark.parametrize("seed", range(12))
def test_online_matches_oracles_random_programs(seed):
    _compare(seed, nprocs=3, phases=3, ops=6, sched_seed=seed * 7 + 1)


@pytest.mark.parametrize("seed", range(6))
def test_online_matches_oracles_more_processes(seed):
    _compare(seed + 100, nprocs=5, phases=2, ops=5, sched_seed=seed)


@pytest.mark.parametrize("config", [dict(coarse_filter=False),
                                    dict(sharded_detection=True)],
                         ids=["no-coarse-filter", "sharded"])
@pytest.mark.parametrize("seed", range(6))
def test_online_matches_oracles_non_default_cells(seed, config):
    """The epoch join also serves the filter-off and the sharded cells;
    the oracle has to agree there, not only under the default config."""
    _compare(seed + 200, nprocs=4, phases=3, ops=6, sched_seed=seed * 5 + 2,
             **config)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_online_matches_oracles_property(seed, sched_seed):
    _compare(seed, nprocs=3, phases=2, ops=5, sched_seed=sched_seed)


def test_trace_disabled_by_default():
    program = generate_program(0, 2, 1, 3)

    def app(env):
        base = env.malloc(NWORDS, name="arena")
        env.barrier()
        for phase_ops in program[env.pid]:
            for op in phase_ops:
                _execute(env, base, op)
            env.barrier()

    _system, result = run_app_with_system(app, nprocs=2)
    assert result.access_trace == []
