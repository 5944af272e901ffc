"""Run compiled kernel-DSL binaries as CVM applications.

This is the bridge between the two layers of the repo: programs written
in the kernel language (:mod:`repro.instrument.parser`) are compiled,
linked, ATOM-rewritten — and then executed *inside the simulated DSM*,
so every heap access the static filter could not prove private flows
through :class:`repro.dsm.cvm.Env` and is seen by the race detector as
an ordinary instrumented access.

Address mapping
---------------
The mini-ISA machine has a private address space per process (stack,
statics) plus a heap region starting at ``HEAP_BASE``.  The bridge maps
the whole heap region onto one named shared-segment allocation::

    env address = shared_base + (machine address - HEAP_BASE)

The allocation is *named*, so every process resolves the same base and
machine heap pointers are meaningful across processes — a pointer built
by pid 0 and published through shared memory dereferences to the same
words on every pid.

The heap region is carved deterministically:

* the first page is the **mailbox** — a shared scratch page whose
  machine address (``HEAP_BASE``) is passed to the DSL ``main`` so
  programs can publish roots (a deque pointer, a tree root, a bucket
  table) without any other rendezvous;
* after it come per-pid **arenas** of ``ARENA_WORDS`` each; a process's
  ``new`` draws from its own arena, so allocation is race-free by
  construction while the *objects* remain fully shared.

Accesses below ``HEAP_BASE`` (stack and statics) stay machine-private.
When the rewriter instrumented such an access (a "false" instrumentation
the filter could not eliminate), the analysis hook charges it via
``env.private_accesses`` — exactly the Table 3 accounting the scalar
apps use.

Synchronization intrinsics ``lock``/``unlock``/``barrier``/``pause``
are forwarded to the Env, so DSL programs participate in the same
interval/epoch structure as the hand-written SPMD apps.
"""

from __future__ import annotations

from functools import lru_cache

from repro.dsm.cvm import Env
from repro.instrument.isa import BinaryImage
from repro.instrument.machine import HEAP_BASE, Machine

#: Words of private ``new`` arena per process.  16 procs fit comfortably
#: in the default 64Ki-word segment: 1 mailbox page + 16 * 512 words.
ARENA_WORDS = 512


@lru_cache(maxsize=None)
def compiled_image(name: str, source: str,
                   regalloc: str = "linear") -> BinaryImage:
    """Compile, link, ATOM-instrument and lower a DSL program (cached —
    the binary is immutable and shared by every process and every run).

    Lowering happens here, in the thread that builds the image: block
    compilation inside the simulation threads would leave its transient
    allocations resident in every thread's arena.  The toolchain is
    imported here: a process that runs no DSL program never loads it."""
    from repro.instrument.atom import AtomRewriter
    from repro.instrument.linker import link
    from repro.instrument.lower import lower_image
    from repro.instrument.parser import compile_source

    obj = compile_source(source, name, regalloc=regalloc)
    image = AtomRewriter().instrument(
        link(name, [obj], libraries=[], include_cvm=False, strict=True))
    lower_image(image)
    return image


class DslMachine(Machine):
    """A mini-ISA machine whose heap region lives in CVM shared memory."""

    def __init__(self, image: BinaryImage, env: Env, shared_base: int,
                 **kwargs):
        # The hook and the synchronization intrinsics close over ``env``,
        # never over the machine: a machine holding a bound method of
        # itself would be a reference cycle, and through ``env`` it would
        # keep the whole finished run alive with it.
        def analysis(addr: int, is_store: bool, origin: str) -> None:
            """The rewriter's analysis call.  Shared accesses were already
            fully accounted (cost, bitmaps, detection) by the ``env.load``
            / ``env.store`` the LD/ST itself performed; what remains is
            the instrumented-but-private case — the run-time check that
            fails the shared-segment bounds test."""
            if addr < HEAP_BASE:
                env.private_accesses(1)

        super().__init__(image, analysis_hook=analysis, **kwargs)
        self.env = env
        self.shared_base = shared_base
        psz = env.config.page_size_words
        # Carve this pid's arena out of the shared heap region (the first
        # page is the mailbox, common to all pids).
        self.heap_next = HEAP_BASE + psz + env.pid * ARENA_WORDS
        self.heap_limit = self.heap_next + ARENA_WORDS
        self.intrinsics.update(
            lock=lambda lid, *_: env.lock(lid) or 0,
            unlock=lambda lid, *_: env.unlock(lid) or 0,
            barrier=lambda *_: env.barrier() or 0,
            pause=lambda n, *_: env.pause(max(1, n)) or 0,
        )

    # -- shared/private split ------------------------------------------- #
    def read_word(self, addr: int) -> int:
        if addr >= HEAP_BASE:
            return int(self.env.load(self.shared_base + (addr - HEAP_BASE)))
        return self.memory.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        if addr >= HEAP_BASE:
            self.env.store(self.shared_base + (addr - HEAP_BASE), value)
        else:
            self.memory[addr] = value


def run_dsl_app(env: Env, source: str, name: str, *main_args: int) -> int:
    """Execute a DSL program under this Env and return its ``main``'s
    value.  ``main`` is invoked as ``main(pid, nprocs, mailbox, *args)``
    where ``mailbox`` is the machine address of the shared mailbox page.
    """
    psz = env.config.page_size_words
    total = psz + env.nprocs * ARENA_WORDS
    base = env.malloc(total, name=f"dslheap:{name}", page_aligned=True)
    machine = DslMachine(compiled_image(name, source), env, base)
    return machine.run(env.pid, env.nprocs, HEAP_BASE, *main_args)
