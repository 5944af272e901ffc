"""SOR: red-free Jacobi relaxation over a shared grid (paper Table 1).

Structure follows the classic TreadMarks/CVM SOR: two grids (read the old
one, write the new one), a block of rows per process, and a barrier between
iterations.  Rows are exactly one page wide and bands are page-aligned, so
neighbouring processes never write the same page — SOR exhibits *no*
unsynchronized sharing at all, true or false, which is why the paper's
Table 3 shows 0% intervals used and 0% bitmaps used for it.

Each process reads its own band plus one boundary row from each neighbour;
those boundary rows were written in the *previous* epoch, so the barrier
orders the accesses and no race (or false-sharing candidate) exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import band
from repro.dsm.cvm import Env

#: Compute units charged per relaxed grid point (4 adds + 1 divide).
FLOPS_PER_POINT = 5
#: Private (instrumented-but-private) accesses per relaxed point: loop
#: bookkeeping and scratch the static filter could not eliminate.
PRIVATE_PER_POINT = 3


@dataclass(frozen=True)
class SorParams:
    rows: int = 48
    cols: int = 64          # exactly one 64-word page per row
    iterations: int = 5


#: The paper's input set (512x512, Table 1) — runnable but slow in Python.
PAPER_PARAMS = SorParams(rows=512, cols=512, iterations=5)


def footprint_words(params: SorParams, _nprocs: int, page_words: int) -> int:
    """Two page-aligned ``rows * cols`` grids."""
    return 2 * -(-params.rows * params.cols // page_words) * page_words


def sor(env: Env, params: SorParams = SorParams()) -> float:
    """Run Jacobi relaxation; returns the final center-point value."""
    rows, cols, iters = params.rows, params.cols, params.iterations
    red = env.malloc(rows * cols, name="sor_red", page_aligned=True)
    black = env.malloc(rows * cols, name="sor_black", page_aligned=True)
    lo, hi = band(rows, env.nprocs, env.pid)

    # Initialize own band of the source grid: boundary rows hot, rest cold.
    for r in range(lo, hi):
        value = 100.0 if r in (0, rows - 1) else float(r % 7)
        env.store_range(red + r * cols, [value] * cols)
    env.barrier()

    src, dst = red, black
    for _it in range(iters):
        for r in range(max(lo, 1), min(hi, rows - 1)):
            above = env.load_range(src + (r - 1) * cols, cols)
            here = env.load_range(src + r * cols, cols)
            below = env.load_range(src + (r + 1) * cols, cols)
            new_row = list(here)
            for c in range(1, cols - 1):
                new_row[c] = (above[c] + below[c]
                              + here[c - 1] + here[c + 1]) / 4.0
            env.compute((cols - 2) * FLOPS_PER_POINT)
            env.private_accesses((cols - 2) * PRIVATE_PER_POINT)
            env.store_range(dst + r * cols, new_row)
        # Boundary rows are copied unchanged so the next iteration's
        # neighbours see consistent data.
        for r in (lo, hi - 1):
            if r in (0, rows - 1):
                env.store_range(dst + r * cols,
                                env.load_range(src + r * cols, cols))
        env.barrier()
        src, dst = dst, src

    center = env.load(src + (rows // 2) * cols + cols // 2)
    return float(center)
