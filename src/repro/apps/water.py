"""Water: miniature Water-Nsquared (Splash2) with the historical bug.

Structure follows the Splash2 kernel the paper ran: molecules distributed
in blocks; each timestep alternates

1. an O(n²/2) *inter*-molecule force phase in which each process computes
   pair forces between its molecules and the following half of the ring,
   accumulating contributions into the shared force array under
   **fine-grained per-partition locks**, a few molecules per critical
   section, Splash-style.  The many small lock intervals per barrier —
   each carrying read notices for the pages it touched — are what give
   Water its large interval count and its outsized read-notice bandwidth
   (Table 3 reports 48% message overhead, by far the largest);
2. *intra*-molecule integration on the local block (no locking), plus
3. a reduction of kinetic and potential energy into global accumulators.

Force partitions are page-aligned (one partition block per page), so all
cross-process force traffic is lock-ordered and race-free; the molecule
position/velocity arrays are deliberately packed, so neighbouring blocks
share pages and the integration phase exhibits a little false sharing —
Water sits between SOR (none) and TSP (lots) in Table 3's "Intervals
Used", as in the paper (13%).

The seeded bug reproduces the write-write race the paper found in the
Splash2 original and reported upstream: the *kinetic* energy sum is
correctly accumulated under ``GLOBAL_LOCK``, but the *potential* energy sum
is read-modify-written **without the lock** — concurrent unsynchronized
writes by every process to the same shared word (``water_poteng``).  The
detector must flag it as a write-write race; it is a genuine bug (lost
updates corrupt the reported energy).  Construct the app with
``fixed=True`` to run the repaired version, which must be race-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps.base import band
from repro.dsm.cvm import Env


def partition_lock(pid: int) -> int:
    """Lock protecting process ``pid``'s force partition."""
    return 100 + pid


GLOBAL_LOCK = 99

#: Compute units per molecule pair interaction.
FLOPS_PER_PAIR = 12
#: Instrumented-but-private accesses per pair.
PRIVATE_PER_PAIR = 62
#: Molecules updated per critical section when flushing force
#: contributions (smaller -> finer-grained locking, more intervals).
FLUSH_CHUNK = 12


@dataclass(frozen=True)
class WaterParams:
    nmol: int = 48
    steps: int = 3
    #: Run the repaired (properly locked) energy accumulation.
    fixed: bool = False


#: The paper ran 216 molecules for 5 iterations (Table 1).
PAPER_PARAMS = WaterParams(nmol=216, steps=5)


def water(env: Env, params: WaterParams = WaterParams()) -> float:
    """Simulate; returns the final (possibly corrupted!) potential sum."""
    nmol, steps = params.nmol, params.steps
    nprocs = env.nprocs
    psz = env.config.page_size_words
    pos = env.malloc(3 * nmol, name="water_pos")
    vel = env.malloc(3 * nmol, name="water_vel")
    # One page-aligned force block per partition: cross-process force
    # updates are always lock-ordered, and partitions never false-share.
    max_block = -(-nmol // nprocs)
    part_words = -(-3 * max_block // psz) * psz
    forces = env.malloc(nprocs * part_words, name="water_forces",
                        page_aligned=True)
    kin_addr = env.malloc(1, name="water_kineng")
    pot_addr = env.malloc(1, name="water_poteng")
    lo, hi = band(nmol, env.nprocs, env.pid)
    owners, faddr = molecule_tables(nmol, nprocs, forces, part_words)

    # Deterministic initial conditions for the local block.
    for m in range(lo, hi):
        env.store_range(pos + 3 * m, [float((m * 7 + a) % 11) - 5.0
                                      for a in range(3)])
        env.store_range(vel + 3 * m, [float((m * 3 + a) % 5) - 2.0
                                      for a in range(3)])
        env.store_range(faddr[m], [0.0, 0.0, 0.0])
    if env.pid == 0:
        env.store(kin_addr, 0.0)
        env.store(pot_addr, 0.0)
    env.barrier()

    dt = 0.002
    pot_result = 0.0
    for _step in range(steps):
        # Phase 1: inter-molecular forces.  Each process handles pairs
        # (i, j) with i in its block and j in the half-ring after i; the
        # contributions are flushed a few molecules at a time under the
        # owning partition's lock.
        my_pos = env.load_range(pos + 3 * lo, 3 * (hi - lo))
        pending: List[List[float]] = [[] for _ in range(nprocs)]
        pending_idx: List[List[int]] = [[] for _ in range(nprocs)]
        pot_partial = 0.0
        for i in range(lo, hi):
            pi = my_pos[3 * (i - lo):3 * (i - lo) + 3]
            for off in range(1, nmol // 2 + 1):
                j = (i + off) % nmol
                pj = env.load_range(pos + 3 * j, 3)
                dx = [a - b for a, b in zip(pi, pj)]
                r2 = sum(d * d for d in dx) + 1.0
                f = 24.0 / (r2 * r2)
                pot_partial += 4.0 / r2
                owner = owners[j]
                pending[owner].append([f * d for d in dx])
                pending_idx[owner].append(j)
                env.compute(FLOPS_PER_PAIR)
                env.private_accesses(PRIVATE_PER_PAIR)
        for owner in range(nprocs):
            idxs, dfs = pending_idx[owner], pending[owner]
            for base in range(0, len(idxs), FLUSH_CHUNK):
                env.lock(partition_lock(owner))
                for j, df in zip(idxs[base:base + FLUSH_CHUNK],
                                 dfs[base:base + FLUSH_CHUNK]):
                    # interf() re-reads the positions while it updates the
                    # forces, so every critical section's interval carries
                    # read notices for position pages as well — the long
                    # read-notice lists behind Water's outsized message
                    # overhead (Table 3: 48%).
                    env.load_range(pos + 3 * j, 3)
                    env.load_range(vel + 3 * j, 3)
                    cur = env.load_range(faddr[j], 3)
                    env.store_range(faddr[j],
                                    [c + d for c, d in zip(cur, df)])
                env.unlock(partition_lock(owner))
        env.barrier()

        # Phase 2: intra-molecular integration on the local block only.
        kin_partial = 0.0
        for m in range(lo, hi):
            f = env.load_range(faddr[m], 3)
            v = env.load_range(vel + 3 * m, 3)
            p = env.load_range(pos + 3 * m, 3)
            v = [vi + dt * fi for vi, fi in zip(v, f)]
            p = [pi_ + dt * vi for pi_, vi in zip(p, v)]
            kin_partial += sum(vi * vi for vi in v)
            env.store_range(vel + 3 * m, v)
            env.store_range(pos + 3 * m, p)
            env.store_range(faddr[m], [0.0, 0.0, 0.0])
            env.compute(3 * FLOPS_PER_PAIR)
            env.private_accesses(3 * PRIVATE_PER_PAIR)

        # Phase 3: energy reduction.  Kinetic: correctly locked.
        env.lock(GLOBAL_LOCK)
        env.store(kin_addr, env.load(kin_addr) + kin_partial,
                  site="water.kineng:locked-write")
        env.unlock(GLOBAL_LOCK)
        if params.fixed:
            env.lock(GLOBAL_LOCK)
            env.store(pot_addr, env.load(pot_addr) + pot_partial,
                      site="water.poteng:locked-write")
            env.unlock(GLOBAL_LOCK)
        else:
            # THE BUG (as shipped in Splash2 and reported by the paper's
            # authors): the potential-energy accumulation misses the lock.
            cur = env.load(pot_addr, site="water.poteng:unsynchronized-read")
            env.store(pot_addr, cur + pot_partial,
                      site="water.poteng:unsynchronized-write")
        env.barrier()
        pot_result = env.load(pot_addr)
        env.barrier()
    return float(pot_result)


def molecule_tables(nmol: int, nprocs: int, forces: int,
                    part_words: int) -> Tuple[List[int], List[int]]:
    """Per-molecule owner pid and force-triple address (fixed for a run)."""
    owners = [_owner_of(mol, nmol, nprocs) for mol in range(nmol)]
    return owners, [forces + owner * part_words
                    + 3 * (mol - band(nmol, nprocs, owner)[0])
                    for mol, owner in enumerate(owners)]


def _owner_of(mol: int, nmol: int, nprocs: int) -> int:
    """Which process's partition a molecule belongs to (block layout)."""
    base_size, extra = divmod(nmol, nprocs)
    boundary = extra * (base_size + 1)
    if mol < boundary:
        return mol // (base_size + 1)
    return extra + (mol - boundary) // max(1, base_size)
