"""Linked binaries of the application kernels, and Table 2 regeneration.

Every kernel is source text (:mod:`repro.instrument.kernels`) that
:func:`binary_for` parses, compiles and links.

FFT and Water link ``libm`` in addition to the core C library — in the
paper their binaries carry 124,716 library loads/stores versus 48,717 for
SOR and TSP, which link only the core.  Every binary links the CVM runtime
(3,910 loads/stores in the paper).
"""

from __future__ import annotations

from typing import Dict

from repro.instrument.atom import AtomRewriter, InstrumentationReport
from repro.instrument.isa import BinaryImage
from repro.instrument.kernels import KERNEL_SOURCES
from repro.instrument.linker import LIBC_CORE, LIBM, link
from repro.instrument.parser import compile_source

#: Which apps pull in the math library.
LINKS_LIBM = frozenset({"fft", "water"})

#: The paper's Table 2 applications (``KERNEL_SOURCES`` also holds LU).
APP_NAMES = ("fft", "sor", "tsp", "water")


def binary_for(app: str, regalloc: str = "naive") -> BinaryImage:
    """Compile and link the named application's kernel binary.

    ``regalloc`` defaults to (and the Table 2 pipeline is pinned to)
    ``"naive"``: the paper's numbers were measured on unoptimized
    single-pass codegen, and they must stay byte-identical.  Pass
    ``"linear"`` for the liveness-driven allocator — fewer loads/stores,
    same program semantics (compared head-to-head by the regalloc
    tests and the toolchain CLI).
    """
    if app not in KERNEL_SOURCES:
        raise KeyError(f"unknown application {app!r}; expected one of "
                       f"{sorted(KERNEL_SOURCES)}")
    obj = compile_source(KERNEL_SOURCES[app], app, regalloc=regalloc)
    libs = [LIBC_CORE, LIBM] if app in LINKS_LIBM else [LIBC_CORE]
    return link(f"{app}+linear" if regalloc == "linear" else app,
                [obj], libraries=libs, strict=True)


def table2_reports() -> Dict[str, InstrumentationReport]:
    """One instrumentation report per application — the rows of Table 2."""
    rewriter = AtomRewriter()
    return {app: rewriter.analyze(binary_for(app)) for app in APP_NAMES}
