"""ATOM-analogue instrumentation toolchain.

The paper uses the ATOM binary rewriter to instrument every Alpha load and
store that *might* reference shared memory, after statically discarding the
ones that provably cannot (§5.1): accesses through the frame pointer
(stack), accesses through the global pointer (statically-allocated data —
safe because CVM allocates all shared memory dynamically), and instructions
in library or CVM code.

We have no Alpha binaries, so we rebuild the whole pipeline one level down:

* :mod:`repro.instrument.isa` — a small RISC instruction set with
  Alpha-style dedicated registers (``fp``, ``gp``, ``sp``);
* :mod:`repro.instrument.kernel_ast` / :mod:`repro.instrument.parser` /
  :mod:`repro.instrument.compiler` — a miniature C-like kernel language
  (AST, text parser, compiler) that emits mini-ISA code with the
  addressing-mode discipline the static filter relies on;
* :mod:`repro.instrument.linker` — links compiled application objects with
  synthetic libc/libm/CVM objects into a :class:`BinaryImage`;
* :mod:`repro.instrument.atom` — the rewriter: classifies every load and
  store (Table 2's categories) and inserts analysis-routine calls before
  the survivors;
* :mod:`repro.instrument.lower` — decodes each application function once
  into basic-block Python code (slots, block indices, constants resolved);
* :mod:`repro.instrument.machine` — the execution context that runs those
  blocks, so the inserted calls demonstrably fire at run time.
"""
