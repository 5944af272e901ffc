"""Kernel-language source kernels: parse, classify, execute (LU in depth)."""

import pytest

from repro.instrument.atom import AtomRewriter
from repro.instrument.binaries import binary_for
from repro.instrument.kernels import KERNEL_SOURCES
from repro.instrument.machine import AnalysisCounter, Machine
from repro.instrument.parser import parse_kernel

#: app -> (functions in link order, statics in offset order).
DECLARED = {
    "fft": (["fft_butterfly", "fft_transpose", "fft_bit_reverse",
             "fft_scale", "main"], ("fft_norm", "fft_log2n")),
    "sor": (["sor_relax_row", "sor_init", "main"], ("sor_seed",)),
    "tsp": (["tsp_tour_length", "tsp_expand_node", "tsp_prune",
             "tsp_update_bound", "tsp_validate_tour", "tsp_compact_queue",
             "tsp_record_best", "main"], ("tsp_ncities", "tsp_best_seen")),
    "water": (["water_interf", "water_intraf", "water_kineti",
               "water_poteng", "water_bndry", "main"],
              ("water_cutoff", "water_dt", "water_boxl")),
    "lu": (["lu_init", "lu_eliminate", "lu_trace", "main"], ("lu_steps",)),
}


@pytest.mark.parametrize("app", sorted(KERNEL_SOURCES))
def test_kernel_source_parses(app):
    prog = parse_kernel(KERNEL_SOURCES[app], app)
    functions, statics = DECLARED[app]
    assert [fn.name for fn in prog.functions] == functions
    assert prog.statics == statics


def test_lu_binary_links_and_classifies():
    image = binary_for("lu")
    report = AtomRewriter().analyze(image)
    assert report.eliminated_fraction > 0.99
    assert report.instrumented > 0


def test_lu_kernel_executes_matching_reference():
    """The mini-ISA LU (integer arithmetic) matches a Python reference
    using the same integer input and integer division."""
    n = 6

    def reference():
        a = [[(r * 13 + c * 7) - (r + c) + (4 * n if r == c else 0)
              for c in range(n)] for r in range(n)]
        for k in range(n - 1):
            for r in range(k + 1, n):
                factor = int(a[r][k] / a[k][k])
                a[r][k] = factor
                for c in range(k + 1, n):
                    a[r][c] -= factor * a[k][c]
        return sum(a[i][i] for i in range(n))

    image = binary_for("lu")
    assert Machine(image).run(n) == reference()


def test_lu_instrumented_fires_only_for_matrix():
    image = AtomRewriter().instrument(binary_for("lu"))
    hook = AnalysisCounter()
    m = Machine(image, analysis_hook=hook, max_steps=3_000_000)
    m.run(6)
    assert m.analysis_calls > 0
    assert hook.private == 0        # all surviving accesses hit the heap
    assert hook.shared == m.analysis_calls


def test_unknown_binary_rejected():
    with pytest.raises(KeyError):
        binary_for("doom")
