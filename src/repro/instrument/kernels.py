"""Kernel-language sources of the paper's application kernels.

These are the mini-language analogues of the C sources whose binaries the
paper instrumented: the inner loops of FFT, SOR, TSP and Water (Table 2's
rows), plus an LU decomposition matching :mod:`repro.apps.lu`, written
against dynamically-allocated (potentially shared) arrays via ``p[i]``,
with loop counters and scratch in locals, lookup tables in statics, and
per-call scratch arrays on the stack.  Every kernel runs through the one
pipeline (:mod:`repro.instrument.binaries`): parse → compile → link →
filter → instrument → execute.  The linked binaries' load/store
classification regenerates Table 2's structure: a handful of app accesses
survive the static filter while libraries and the CVM runtime dominate raw
counts.

Relative sizes follow the paper: Water has the largest instrumented
residue, then TSP, then FFT, then SOR; FFT and Water additionally link
``libm`` (their binaries carried ~125k library loads/stores vs ~49k for
SOR and TSP).

Some declarations are never read, and are kept.  FFT ``main``'s local
``p`` and ``tsp_expand_node``'s local ``len`` hold the frame slots that
put the locals declared after them where Table 2's instruction bytes
were counted (``naive`` codegen; dropping either moves the golden
digests).  The static ``fft_log2n`` is declared last, so it moves no
offset; it stays with the rest of FFT's declarations.
"""

from __future__ import annotations

FFT_SOURCE = """
# 1D butterflies over a dynamically allocated complex array plus a blocked
# transpose (the phase that causes the false sharing the paper's Table 3
# shows for FFT).

static fft_norm, fft_log2n;

func fft_butterfly(data, twiddles, n, stride) {
    local i, j, ar, ai, br, bi, wr, wi, tr, ti;
    for (i = 0; i < n; i += 1) {
        j = i + stride;
        ar = data[i * 2];
        ai = data[i * 2 + 1];
        br = data[j * 2];
        bi = data[j * 2 + 1];
        wr = twiddles[i * 2];
        wi = twiddles[i * 2 + 1];
        tr = br * wr - bi * wi;
        ti = br * wi + bi * wr;
        data[i * 2] = ar + tr;
        data[i * 2 + 1] = ai + ti;
        data[j * 2] = ar - tr;
        data[j * 2 + 1] = ai - ti;
    }
}

func fft_transpose(src, dst, rows, cols) {
    local r, c, v;
    for (r = 0; r < rows; r += 1) {
        for (c = 0; c < cols; c += 1) {
            v = src[r * cols + c];
            dst[c * rows + r] = v;
        }
    }
}

func fft_bit_reverse(data, n) {
    local i, j, bit, t0, t1;
    array perm[32];
    for (i = 0; i < n; i += 1) {
        j = 0;
        bit = 0;
        while (bit < 5) {
            perm[bit] = j;
            j = j * 2 + (i & 1);
            bit = bit + 1;
        }
        if (i < j) {
            t0 = data[i];
            t1 = data[j];
            data[i] = t1;
            data[j] = t0;
        }
    }
}

func fft_scale(data, n) {
    local i;
    for (i = 0; i < n; i += 1) {
        data[i] = data[i] / fft_norm;
    }
}

func main(n) {
    local p, d, t;
    d = malloc(n * 2);
    t = malloc(n * 2);
    fft_bit_reverse(d, n);
    fft_butterfly(d, t, n, 1);
    fft_transpose(d, t, 8, 8);
    fft_scale(d, n);
    return 0;
}
"""

SOR_SOURCE = """
# Jacobi relaxation: the smallest kernel (fewest instrumented accesses).

static sor_seed;

func sor_relax_row(src, dst, cols, row) {
    local c, up, down, left, right, base;
    base = row * cols;
    for (c = 1; c < cols - 1; c += 1) {
        up = src[base + c - cols];
        down = src[base + c + cols];
        left = src[base + c - 1];
        right = src[base + c + 1];
        dst[base + c] = (up + down + (left + right)) / 4;
    }
}

func sor_init(grid, n) {
    local i;
    for (i = 0; i < n; i += 1) {
        grid[i] = sor_seed;
    }
}

func main(rows, cols) {
    local a, b, r;
    a = malloc(rows * cols);
    b = malloc(rows * cols);
    sor_init(a, rows * cols);
    for (r = 1; r < rows - 1; r += 1) {
        sor_relax_row(a, b, cols, r);
    }
    return 0;
}
"""

TSP_SOURCE = """
# Branch-and-bound with a shared work queue and global bound: pointer-
# chasing code with many instrumented accesses per line.

static tsp_ncities, tsp_best_seen;

func tsp_tour_length(dmat, tour, k) {
    local i, total, a, b;
    total = 0;
    for (i = 0; i < k - 1; i += 1) {
        a = tour[i];
        b = tour[i + 1];
        total = total + dmat[a * tsp_ncities + b];
    }
    return total;
}

func tsp_expand_node(dmat, queue, qlen, node) {
    local city, len, slot, c;
    array visited[24];
    for (c = 0; c < tsp_ncities; c += 1) {
        visited[c] = 0;
    }
    for (c = 0; c < tsp_ncities; c += 1) {
        city = queue[node + c];
        visited[city] = 1;
    }
    for (c = 0; c < tsp_ncities; c += 1) {
        if (visited[c] == 0) {
            slot = qlen + c;
            queue[slot] = c;
        }
    }
    return slot;
}

func tsp_prune(lower, bound_ptr) {
    local bound;
    # The famous unsynchronized read of the global tour bound.
    bound = bound_ptr[0];
    if (bound < lower) { return 1; } else { return 0; }
}

func tsp_update_bound(bound_ptr, candidate) {
    local cur;
    cur = bound_ptr[0];
    if (candidate < cur) {
        bound_ptr[0] = candidate;
    }
}

func tsp_validate_tour(tour, k) {
    local i, j, a, b, dups;
    dups = 0;
    for (i = 0; i < k; i += 1) {
        a = tour[i];
        for (j = 0; j < k; j += 1) {
            b = tour[j];
            if (a == b) { dups = dups + 1; }
        }
    }
    return dups;
}

func tsp_compact_queue(queue, qlen) {
    local src, dst, flag, v, w;
    dst = 0;
    for (src = 0; src < qlen; src += 1) {
        flag = queue[src];
        if (0 < flag) {
            v = queue[src];
            w = queue[src + 1];
            queue[dst] = v;
            queue[dst + 1] = w;
            dst = dst + 2;
        }
    }
    return dst;
}

func tsp_record_best(tour, best, k) {
    local i, v;
    for (i = 0; i < k; i += 1) {
        v = tour[i];
        best[i] = v;
    }
    best[k] = tsp_best_seen;
}

func main(ncities) {
    local dmat, queue, bound, i, l;
    tsp_ncities = ncities;
    dmat = malloc(ncities * ncities);
    queue = malloc(4096);
    bound = malloc(1);
    bound[0] = 1048576;         # 1 << 20: the language has no shift
    for (i = 0; i < ncities; i += 1) {
        l = tsp_tour_length(dmat, queue, ncities);
        tsp_update_bound(bound, l);
        tsp_expand_node(dmat, queue, i, i);
        tsp_prune(l, bound);
        tsp_validate_tour(queue, ncities);
        tsp_record_best(queue, dmat, i);
    }
    tsp_compact_queue(queue, ncities);
    return 0;
}
"""

WATER_SOURCE = """
# The largest kernel: O(n^2) molecular force interactions over shared
# position/force arrays plus intra-molecule updates.

static water_cutoff, water_dt, water_boxl;

func water_interf(pos, forces, i, j) {
    local dx, dy, dz, r2, f;
    dx = pos[i * 3 + 0] - pos[j * 3 + 0];
    dy = pos[i * 3 + 1] - pos[j * 3 + 1];
    dz = pos[i * 3 + 2] - pos[j * 3 + 2];
    r2 = dx * dx + (dy * dy + dz * dz);
    f = water_cutoff / (r2 + 1);
    forces[i * 3 + 0] = forces[i * 3 + 0] + f * dx;
    forces[i * 3 + 1] = forces[i * 3 + 1] + f * dy;
    forces[i * 3 + 2] = forces[i * 3 + 2] + f * dz;
    forces[j * 3 + 0] = forces[j * 3 + 0] - f * dx;
    forces[j * 3 + 1] = forces[j * 3 + 1] - f * dy;
    forces[j * 3 + 2] = forces[j * 3 + 2] - f * dz;
}

func water_intraf(pos, vel, forces, mol) {
    local a, v, p;
    for (a = 0; a < 3; a += 1) {
        v = vel[mol * 3 + 0];
        p = pos[mol * 3 + 0];
        vel[mol * 3 + a] = v + forces[mol * 3 + a] * water_dt;
        pos[mol * 3 + a] = p + water_dt;
    }
}

func water_kineti(vel, nmol, out) {
    local m, a, sum, v;
    sum = 0;
    for (m = 0; m < nmol; m += 1) {
        for (a = 0; a < 3; a += 1) {
            v = vel[m * 3 + a];
            sum = sum + v * v;
        }
    }
    out[0] = sum;
}

func water_poteng(pos, nmol, out) {
    local i, j, acc;
    acc = 0;
    for (i = 0; i < nmol; i += 1) {
        for (j = 0; j < nmol; j += 1) {
            acc = acc + pos[i + j];
        }
    }
    # The historical Splash bug: unsynchronized accumulation into a
    # shared global sum.
    out[0] = out[0] + acc;
}

func water_bndry(pos, nmol) {
    local m, a, p;
    for (m = 0; m < nmol; m += 1) {
        for (a = 0; a < 3; a += 1) {
            p = pos[m * 3 + a];
            if (water_boxl < p) {
                pos[m * 3 + a] = p - water_boxl;
            }
        }
    }
}

func main(nmol, steps) {
    local pos, vel, forces, sums, s, i, j;
    pos = malloc(nmol * 3);
    vel = malloc(nmol * 3);
    forces = malloc(nmol * 3);
    sums = malloc(8);
    for (s = 0; s < steps; s += 1) {
        for (i = 0; i < nmol; i += 1) {
            for (j = 0; j < nmol; j += 1) {
                water_interf(pos, forces, i, j);
            }
        }
        for (i = 0; i < nmol; i += 1) {
            water_intraf(pos, vel, forces, i);
        }
        water_kineti(vel, nmol, sums);
        water_poteng(pos, nmol, sums);
        water_bndry(pos, nmol);
    }
    return 0;
}
"""

LU_SOURCE = """
# Dense LU decomposition without pivoting over a malloc'd n x n matrix,
# mirroring repro.apps.lu: diagonally dominant input, right-looking
# elimination, trace-of-U readback.

static lu_steps;

func lu_init(a, n) {
    local r, c, v;
    for (r = 0; r < n; r += 1) {
        for (c = 0; c < n; c += 1) {
            v = (r * 13 + c * 7) - (r + c);
            if (r == c) { v = v + 4 * n; }
            a[r * n + c] = v;
        }
    }
}

func lu_eliminate(a, n, k) {
    local r, c, pivot, factor;
    pivot = a[k * n + k];
    for (r = k + 1; r < n; r += 1) {
        factor = a[r * n + k] / pivot;
        a[r * n + k] = factor;
        for (c = k + 1; c < n; c += 1) {
            a[r * n + c] = a[r * n + c] - factor * a[k * n + c];
        }
    }
    lu_steps = lu_steps + 1;
}

func lu_trace(a, n) {
    local i, t;
    t = 0;
    for (i = 0; i < n; i += 1) { t = t + a[i * n + i]; }
    return t;
}

func main(n) {
    local a, k;
    a = malloc(n * n);
    lu_init(a, n);
    for (k = 0; k < n - 1; k += 1) {
        lu_eliminate(a, n, k);
    }
    return lu_trace(a, n);
}
"""


#: Every kernel's source, by application name: the four Table 2 kernels
#: in the paper's order, then LU.
KERNEL_SOURCES = {
    "fft": FFT_SOURCE,
    "sor": SOR_SOURCE,
    "tsp": TSP_SOURCE,
    "water": WATER_SOURCE,
    "lu": LU_SOURCE,
}
