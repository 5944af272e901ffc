"""Execution context for mini-ISA binaries.

Executes application code (including the analysis calls the rewriter
inserted), so the instrumentation pipeline can be demonstrated end to end:
compile a kernel, link it, rewrite it with :class:`AtomRewriter`, run it,
and watch the analysis routine fire once per surviving load/store while
fp/gp-relative accesses execute silently.

Nothing is decoded per instruction: :mod:`repro.instrument.lower` turns
each application function once into basic-block code, and a call is frame
set-up plus a loop handing control from block to block.  This module owns
the state the blocks run against (memory, heap, ``sp``, ``steps``,
``analysis_calls``) and what is resolved at run time: the ``read_word`` /
``write_word`` memory seam, intrinsics by name, the analysis hook.

The machine has a flat word-addressed memory with three regions — stack,
static data, heap — mirroring the address-space layout the run-time shared
test relies on: dynamically allocated (heap) words are *potentially
shared*, everything else is private.  ``__race_analysis`` calls land in a
user hook, which by default classifies the effective address against the
heap region and counts shared vs. private — the same check CVM's analysis
routine performs against the shared segment (§5.1).

Library and CVM functions are not executed instruction-by-instruction
(their bodies are synthetic); calls to them return 0 unless an intrinsic
is registered.  This matches the modelling boundary: their cost and their
Table 2 classification matter, their semantics do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InstrumentationError
from repro.instrument.isa import ARG_REGS, BinaryImage, Section
from repro.instrument.lower import (ARG_SLOT, FP_SLOT, GP_SLOT, RV_SLOT,
                                    lowered)

#: Memory layout (word addresses).
STACK_BASE = 0
STATIC_BASE = 1 << 16
HEAP_BASE = 1 << 17

AnalysisHook = Callable[[int, bool, str], None]


@dataclass
class AnalysisCounter:
    """Default analysis hook: classify effective addresses shared/private
    by region, like CVM's segment-bounds check."""

    shared: int = 0
    private: int = 0
    events: List[Tuple[int, bool]] = field(default_factory=list)

    def __call__(self, addr: int, is_store: bool, origin: str) -> None:
        if addr >= HEAP_BASE:
            self.shared += 1
        else:
            self.private += 1
        self.events.append((addr, is_store))


class Machine:
    """One mini-ISA execution context."""

    #: The intrinsics every machine implements: symbol -> method name.
    #: Resolved on the instance at each call, so a machine holds no bound
    #: method of itself (which would make every machine a reference cycle).
    BUILTIN_INTRINSICS = {"malloc": "_malloc",
                          "__heap_alloc": "_heap_alloc",
                          "__heap_free": "_heap_free"}

    def __init__(self, image: BinaryImage, heap_words: int = 1 << 16,
                 analysis_hook: Optional[AnalysisHook] = None,
                 max_steps: int = 5_000_000):
        self.image = image
        self.memory: Dict[int, int] = {}
        self.heap_next = HEAP_BASE
        self.heap_limit = HEAP_BASE + heap_words
        self.sp = STACK_BASE + (1 << 15)  # stack grows down
        self.analysis_hook = analysis_hook or AnalysisCounter()
        self.analysis_calls = 0
        self.steps = 0
        self.max_steps = max_steps
        #: Registered intrinsics (:meth:`intrinsic`), which take
        #: precedence over :data:`BUILTIN_INTRINSICS`.
        self.intrinsics: Dict[str, Callable[..., int]] = {}
        # Free lists for the ``new``/``delete`` allocator: exact-size
        # block recycling (metadata lives Python-side, uninstrumented,
        # like libc allocator internals).
        self._free_blocks: Dict[int, List[int]] = {}
        self._block_sizes: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Public API.
    # ------------------------------------------------------------------ #
    def run(self, *args: int, entry: Optional[str] = None) -> int:
        """Execute the binary's entry function with integer arguments."""
        name = entry or self.image.entry
        if name is None:
            raise InstrumentationError("binary has no entry symbol")
        return self._call(name, list(args))

    def intrinsic(self, name: str, fn: Callable[..., int]) -> None:
        """Register a Python implementation for an external symbol."""
        self.intrinsics[name] = fn

    def resolve_intrinsic(self, name: str) -> Optional[Callable[..., int]]:
        """The implementation of external symbol ``name``, or ``None``
        for an opaque library call."""
        fn = self.intrinsics.get(name)
        if fn is None and name in self.BUILTIN_INTRINSICS:
            fn = getattr(self, self.BUILTIN_INTRINSICS[name])
        return fn

    def read_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        self.memory[addr] = value

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _malloc(self, nwords: int, *_ignored: int) -> int:
        """Bump allocator for the heap region.  Intrinsics are invoked with
        the full argument-register file, so extra values are ignored —
        user-registered intrinsics should follow the same convention."""
        addr = self.heap_next
        if addr + nwords > self.heap_limit:
            raise InstrumentationError("machine heap exhausted")
        self.heap_next += nwords
        return addr

    def _heap_alloc(self, nwords: int, *_ignored: int) -> int:
        """``new`` — bump allocation with exact-size free-list reuse.

        Deterministic: blocks freed by ``delete`` are recycled LIFO, so a
        churned allocation pattern (the hash-table app) revisits the same
        shared words instead of marching through the arena."""
        nwords = max(1, nwords)
        free = self._free_blocks.get(nwords)
        if free:
            addr = free.pop()
        else:
            addr = self._malloc(nwords)
        self._block_sizes[addr] = nwords
        return addr

    def _heap_free(self, addr: int, *_ignored: int) -> int:
        """``delete`` — return a block to its size class."""
        size = self._block_sizes.pop(addr, None)
        if size is None:
            raise InstrumentationError(
                f"__heap_free of unallocated address {addr}")
        self._free_blocks.setdefault(size, []).append(addr)
        return 0

    def _call(self, name: str, args: List[int]) -> int:
        fn = self.image.functions.get(name)
        if fn is None or fn.section is not Section.APP:
            intrinsic = self.resolve_intrinsic(name)
            if intrinsic is not None:
                return int(intrinsic(*args))
            return 0  # opaque library call
        if len(args) > len(ARG_REGS):
            raise InstrumentationError(
                f"{name}: {len(args)} arguments, but the calling convention "
                f"has {len(ARG_REGS)} argument registers "
                f"({ARG_REGS[0]}..{ARG_REGS[-1]})")
        code = lowered(self.image).function(fn)
        frame = self.sp - max(1, fn.frame_words)
        r = [0] * code.nregs
        r[FP_SLOT], r[GP_SLOT] = frame, STATIC_BASE
        r[ARG_SLOT:ARG_SLOT + len(args)] = args
        blocks, rd, wr = code.blocks, self.read_word, self.write_word
        saved_sp, self.sp = self.sp, frame
        try:
            b = 0
            while b >= 0:
                b = blocks[b](self, r, rd, wr)
            return r[RV_SLOT]
        finally:
            self.sp = saved_sp

    def _callr(self, addr: int, args: List[int]) -> int:
        name = lowered(self.image).names.get(addr)
        if name is None:
            raise InstrumentationError(
                f"callr through {addr}: not a function address")
        return self._call(name, args)
