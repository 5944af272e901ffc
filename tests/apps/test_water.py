"""Water: the seeded Splash2 bug, its fix, and the fine-grained structure."""

import pytest

from repro.apps.base import band
from repro.apps.registry import APPLICATIONS
from repro.apps.water import (WaterParams, _owner_of, molecule_tables,
                              water)
from repro.core.report import RaceKind, involves_symbol
from repro.dsm.cvm import CVM

SPEC = APPLICATIONS["water"]
SMALL = WaterParams(nmol=16, steps=2)


def test_bug_found_as_write_write_race_on_poteng():
    """The paper's §5 headline for Water: a write-write race that is a
    real bug, on the global potential-energy accumulator."""
    res = SPEC.run(nprocs=8)
    assert len(res.races) > 0
    assert all(involves_symbol(r, "water_poteng") for r in res.races)
    assert any(r.kind is RaceKind.WRITE_WRITE for r in res.races)


def test_fixed_version_is_race_free():
    res = CVM(SPEC.config(nprocs=8)).run(
        water, WaterParams(nmol=SMALL.nmol, steps=SMALL.steps, fixed=True))
    assert res.races == []


def test_bug_actually_loses_updates():
    """The race is a genuine bug: under schedules that interleave the
    read-modify-write, the potential sum comes out lower than the fixed
    version's (lost updates)."""
    fixed = CVM(SPEC.config(nprocs=4)).run(
        water, WaterParams(nmol=SMALL.nmol, steps=SMALL.steps, fixed=True))
    correct = fixed.results[0]
    buggy_results = set()
    for seed in range(6):
        res = CVM(SPEC.config(nprocs=4, policy="random", seed=seed)).run(
            water, SMALL)
        buggy_results.add(round(res.results[0], 9))
    # The buggy version must disagree with the fixed sum for some seed.
    assert any(abs(b - correct) > 1e-9 for b in buggy_results)


def test_force_accumulation_race_free():
    """Per-partition locking keeps the force array itself race-free: all
    races are on the energy word, never on forces."""
    res = SPEC.run(nprocs=8)
    assert not any(involves_symbol(r, "water_forces") for r in res.races)
    assert not any(involves_symbol(r, "water_pos") for r in res.races)
    assert not any(involves_symbol(r, "water_kineng") for r in res.races)


def test_intermediate_interval_count():
    """Water sits between the barrier-only apps and TSP in intervals per
    barrier (Table 1: 2 < water < tsp)."""
    water_res = SPEC.run(nprocs=8)
    tsp_res = APPLICATIONS["tsp"].run(nprocs=8)
    assert 2.0 < water_res.intervals_per_barrier < \
        tsp_res.intervals_per_barrier


def test_deterministic_given_seed():
    a = CVM(SPEC.config(nprocs=4, policy="random", seed=3)).run(water, SMALL)
    b = CVM(SPEC.config(nprocs=4, policy="random", seed=3)).run(water, SMALL)
    assert a.results == b.results
    assert len(a.races) == len(b.races)


@pytest.mark.parametrize("nmol", [1, 7, 48, 64, 216])
def test_molecule_tables_are_the_functions_tabulated(nmol):
    """``owners[mol]`` / ``faddr[mol]`` are what the per-access
    ``force_addr`` → ``_owner_of`` → ``band`` chain computed: the owner's
    page-aligned partition block plus the molecule's slot in the owner's
    band (more processes than molecules included)."""
    forces, part_words = 4096, 128
    for nprocs in range(1, 17):
        owners, faddr = molecule_tables(nmol, nprocs, forces, part_words)
        assert len(owners) == len(faddr) == nmol
        for mol in range(nmol):
            owner = _owner_of(mol, nmol, nprocs)
            lo, hi = band(nmol, nprocs, owner)
            assert lo <= mol < hi
            assert owners[mol] == owner
            assert faddr[mol] == forces + owner * part_words + 3 * (mol - lo)
