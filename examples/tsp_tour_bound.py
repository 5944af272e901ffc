#!/usr/bin/env python
"""TSP's benign races on the global tour bound, plus §6.1 attribution.

The branch-and-bound TSP deliberately reads the global best-tour bound
without locking: a stale bound only causes redundant search, never a wrong
answer.  The paper's system flags these as read-write data races — real
races, benign by design.  This example:

1. runs TSP on 8 simulated processes and shows the detector's reports;
2. verifies the answer equals the true optimum despite the races;
3. runs the two-phase replay pipeline of §6.1 to attribute the races to
   the exact source sites (the "program counter" identification the paper
   describes), using a recorded synchronization order so the races recur.

Run:  python examples/tsp_tour_bound.py
"""

from itertools import permutations

from repro.apps.registry import APPLICATIONS
from repro.apps.tsp import TspParams, _distance_matrix
from repro.replay import attribute_races


def true_optimum(n):
    dist = _distance_matrix(n)
    return min(sum(dist[t[i] * n + t[(i + 1) % n]] for i in range(n))
               for t in ((0,) + p for p in permutations(range(1, n))))


def main():
    spec = APPLICATIONS["tsp"]
    params = TspParams(ncities=9)
    result = spec.run(nprocs=8, params=params)

    print(f"TSP solved: optimal tour length {result.results[0]} "
          f"(exhaustive check: {true_optimum(params.ncities)})")
    print(f"lock acquires: {result.metrics['dsm.sync.lock_acquires']}, "
          f"intervals/barrier: {result.intervals_per_barrier:.1f}")

    print(f"\n{len(result.races)} benign data races on the tour bound:")
    for race in result.races[:5]:
        print(f"  {race}")
    if len(result.races) > 5:
        print(f"  ... and {len(result.races) - 5} more, all on tsp_bound")
    assert all(r.symbol.startswith("tsp_bound") for r in result.races)

    print("\n--- §6.1 second-run attribution (record + replay) ---")
    report = attribute_races(spec.func, params, spec.config(nprocs=8))
    print(f"synchronization log: {report.log_bytes} bytes, "
          f"{report.replay_grants} grants replayed")
    print("source sites touching the racy word:")
    for site in sorted(report.sites_for_symbol("tsp_bound")):
        print(f"  {site}")


if __name__ == "__main__":
    main()
