"""TSP: branch-and-bound traveling salesman (paper Table 1, §5).

The canonical DSM TSP: a lock-protected queue of partial tours, and a
global *tour bound* holding the best complete tour length found so far.
Workers pop a partial tour, extend it exhaustively (private computation),
and prune subtrees whose lower bound exceeds the global bound.

The famous performance trick — and the source of the races the paper's
system correctly reports — is that the pruning test reads the global bound
**without acquiring the bound lock**.  A stale bound only costs redundant
work, never a wrong answer, because every *update* of the bound is made
under the lock and re-validated.  Those unsynchronized reads are actual
read-write data races on ``tsp_bound`` and the detector must flag them
(benign, as §1 explains: "out-of-date tour bounds may cause redundant work
to be performed, but do not violate correctness").

TSP is the interval-heavy workload: hundreds of lock acquire/release pairs
between barriers (Table 1 reports 177 intervals per barrier), which is what
exercises the concurrent-interval search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Tuple

from repro.dsm.cvm import Env

#: Lock ids.
QUEUE_LOCK = 0
BOUND_LOCK = 1

#: Compute units charged per evaluated tour edge.
FLOPS_PER_EDGE = 24
#: Instrumented-but-private accesses per evaluated tour edge.
PRIVATE_PER_EDGE = 3


@dataclass(frozen=True)
class TspParams:
    ncities: int = 11
    #: Depth of the partial tours seeded into the shared queue.
    seed_depth: int = 3


#: The paper solved 19 cities (Table 1).
PAPER_PARAMS = TspParams(ncities=19, seed_depth=3)


def _distance_matrix(n: int) -> List[int]:
    """Deterministic pseudo-random symmetric distances."""
    dist = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            d = ((i * 37 + j * 101) % 97) + 1
            dist[i * n + j] = d
            dist[j * n + i] = d
    return dist


def _lower_bound(dist: List[int], n: int, prefix: Tuple[int, ...],
                 length: int) -> int:
    """Cheap admissible bound: prefix length + min outgoing edge per
    unvisited city."""
    used = set(prefix)
    extra = 0
    for c in range(n):
        if c in used:
            continue
        best = min(dist[c * n + o] for o in range(n) if o != c)
        extra += best
    return length + extra


def tsp(env: Env, params: TspParams = TspParams()) -> int:
    """Solve TSP by branch and bound; returns the optimal tour length
    (every process returns the same value)."""
    n = params.ncities
    depth = params.seed_depth
    rec_words = depth + 2  # cities + prefix length + valid flag

    dmat_addr = env.malloc(n * n, name="tsp_dist")
    # The bound lives on its own page: bound traffic (the racy reads) and
    # queue traffic (always lock-ordered) never false-share, so bitmap
    # retrievals concentrate on the genuinely racy page.
    bound_addr = env.malloc(1, name="tsp_bound", page_aligned=True)
    qlen_addr = env.malloc(1, name="tsp_qlen", page_aligned=True)
    qhead_addr = env.malloc(1, name="tsp_qhead")
    queue_addr = env.malloc(4096, name="tsp_queue")
    # Per-process counters packed into one page (the original program keeps
    # its statistics block in shared memory): every worker bumps its own
    # word, so worker intervals false-share this page with each other —
    # part of why the paper reports 93% of TSP intervals involved in
    # unsynchronized sharing.
    stats_addr = env.malloc(env.nprocs, name="tsp_stats")
    # Per-process tour scratch (shared segment, page-aligned, private use):
    # the DFS logs candidate tours across a small ring of pages, the way
    # the original keeps its tour structures in shared memory.  These pages
    # are only ever touched by their owner, so their (several) bitmaps per
    # interval are created but never retrieved — which is why the paper's
    # TSP row pairs a 93% "Intervals Used" with only 13% "Bitmaps Used".
    scratch_pages = 6
    psz = env.config.page_size_words
    scratch_addr = env.malloc(env.nprocs * scratch_pages * psz,
                              name="tsp_scratch", page_aligned=True)
    my_scratch = scratch_addr + env.pid * scratch_pages * psz

    dist = _distance_matrix(n)
    if env.pid == 0:
        env.store_range(dmat_addr, dist)
        env.store(bound_addr, 1 << 30)
        # Seed the queue with all partial tours of the given depth that
        # start at city 0.
        count = 0
        for perm in permutations(range(1, n), depth - 1):
            prefix = (0,) + perm
            length = sum(dist[prefix[i] * n + prefix[i + 1]]
                         for i in range(depth - 1))
            rec = list(prefix) + [length, 1]
            env.store_range(queue_addr + count * rec_words, rec)
            count += 1
        env.store(qlen_addr, count)
        env.store(qhead_addr, 0)
    env.barrier()

    # Each process caches the (read-only) distance matrix once.
    local_dist = env.load_range(dmat_addr, n * n)

    pops = 0
    while True:
        # Pop one work unit under the queue lock.
        env.lock(QUEUE_LOCK)
        head = env.load(qhead_addr)
        qlen = env.load(qlen_addr)
        if head >= qlen:
            env.unlock(QUEUE_LOCK)
            break
        env.store(qhead_addr, head + 1)
        rec = env.load_range(queue_addr + head * rec_words, rec_words)
        # Lookahead: the original walks the queue structure while it holds
        # the lock (touching further queue pages whose bitmaps are created
        # but never fetched — queue accesses are always lock-ordered).
        for ahead in range(1, 4):
            if head + ahead < qlen:
                env.load_range(queue_addr + (head + ahead) * rec_words,
                               rec_words)
        env.unlock(QUEUE_LOCK)

        prefix = tuple(rec[:depth])
        length = rec[depth]
        pops += 1
        env.store(stats_addr + env.pid, pops)

        # Every expansion logs the popped prefix into this worker's shared
        # scratch ring and consults recent entries — the original keeps all
        # of its tour structures in shared memory.  These pages are only
        # ever touched by their owner: their bitmaps are created but never
        # retrieved, which is why the paper pairs TSP's 93% "Intervals
        # Used" with only 13% "Bitmaps Used".
        slot = my_scratch + (pops % scratch_pages) * psz
        env.store_range(slot, list(prefix))
        for back in (1, 2, 3):
            prev = my_scratch + ((pops - back) % scratch_pages) * psz
            env.load_range(prev, depth)
        # ... and re-reads distance rows from shared memory (read-only, so
        # read-read overlap is never a race candidate).
        for row in prefix[:4]:
            env.load_range(dmat_addr + row * n, n)

        # THE RACE: read the global bound without synchronization.  Stale
        # values are tolerated — they only admit redundant exploration.
        bound = env.load(bound_addr, site="tsp.prune:unsynchronized-read")
        if _lower_bound(local_dist, n, prefix, length) >= bound:
            env.compute(n * FLOPS_PER_EDGE)
            env.private_accesses(n * PRIVATE_PER_EDGE)
            continue

        best_len, best_tour = _solve_suffix(env, local_dist, n, prefix,
                                            length, bound)
        if best_tour is not None:
            env.store_range(slot, list(best_tour))
        if best_len is not None and best_len < bound:
            # Updates re-validate under the lock, so correctness holds no
            # matter how stale the earlier read was.
            env.lock(BOUND_LOCK)
            current = env.load(bound_addr)
            if best_len < current:
                env.store(bound_addr, best_len,
                          site="tsp.update:locked-write")
            env.unlock(BOUND_LOCK)
    env.barrier()
    return int(env.load(bound_addr))


def _solve_suffix(env: Env, dist: List[int], n: int, prefix: Tuple[int, ...],
                  length: int, bound: int
                  ) -> Tuple[Optional[int], Optional[Tuple[int, ...]]]:
    """Exhaustive depth-first completion of one partial tour (private
    work), with occasional unsynchronized re-reads of the global bound for
    mid-subtree pruning, exactly like the original program."""
    search = _SuffixSearch(env, dist, n, bound)
    remaining = [c for c in range(n) if c not in prefix]
    search.dfs(list(prefix), length, remaining)
    env.compute(search.nodes_visited * FLOPS_PER_EDGE)
    env.private_accesses(search.nodes_visited * PRIVATE_PER_EDGE)
    return search.best_len, search.best_tour


class _SuffixSearch:
    """The state of one :func:`_solve_suffix` search.  A method recursing
    through ``self`` holds no reference to itself, where a closure calling
    itself by name is a reference cycle per search."""

    __slots__ = ("env", "dist", "n", "bound", "best_len", "best_tour",
                 "nodes_visited")

    def __init__(self, env: Env, dist: List[int], n: int, bound: int):
        self.env = env
        self.dist = dist
        self.n = n
        self.bound = bound
        self.best_len: Optional[int] = None
        self.best_tour: Optional[Tuple[int, ...]] = None
        self.nodes_visited = 0

    def dfs(self, tour: List[int], length: int, todo: List[int]) -> None:
        dist, n = self.dist, self.n
        self.nodes_visited += 1
        if (self.nodes_visited & 0x3F) == 0:
            # Periodic unsynchronized refresh of the bound (also racy).
            env = self.env
            fresh = env.load(env.system.segment.lookup("tsp_bound").addr,
                             site="tsp.dfs:unsynchronized-read")
            self.bound = min(self.bound, fresh)
        if not todo:
            total = length + dist[tour[-1] * n + tour[0]]
            if self.best_len is None or total < self.best_len:
                self.best_len, self.best_tour = total, tuple(tour)
            return
        last = tour[-1]
        for nxt in sorted(todo, key=lambda c: dist[last * n + c]):
            step = dist[last * n + nxt]
            if length + step >= self.bound and \
                    (self.best_len is None or length + step >= self.best_len):
                continue
            tour.append(nxt)
            todo.remove(nxt)
            self.dfs(tour, length + step, todo)
            todo.append(nxt)
            tour.pop()
