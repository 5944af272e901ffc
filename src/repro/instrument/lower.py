"""Lowering: each mini-ISA function decoded once into basic-block code.

The phase between the rewriters (:mod:`repro.instrument.atom`,
:mod:`repro.instrument.batch`) and :mod:`repro.instrument.machine`.  A
``Section.APP`` function becomes one Python function per basic block,
compiled from generated source (the ``dataclasses`` / ``namedtuple``
technique), with everything a rewrite fixes resolved here, once:

* register names are list slots — ``fp gp a0–a5 v0`` at fixed positions
  (frame set-up needs no lookup), the rest in first-use order; the file
  starts as ``[0] * nregs``, so a register nobody wrote reads 0;
* a block ends after every label, branch, jump and ``ret``.  A taken
  branch lands on the block *after* its label; falling into a label
  executes it as a counted no-op — ``steps`` is exact either way;
* ``la`` is its ``FUNC_BASE + i`` constant, and the ``__race_analysis``
  operands (base slot, offset, ld/st, run length, origin) are literals;
* a block charges its length to ``steps`` and tests ``max_steps`` once
  on entry: the limit fires before a block that would cross it, so never
  more than ``max_steps`` instructions execute.

Left to run time is what may differ per machine or per call: the memory
seam (``rd``/``wr`` are the machine's ``read_word``/``write_word``),
intrinsics (``m._call`` resolves names) and ``analysis_hook``.  The
lowered form is owned by the image (``image._lowered``, like
``_fa_cache``): adding a function re-lowers everything (addresses
shift), replacing one re-lowers that one on its next call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.errors import InstrumentationError
from repro.instrument.atom import ANALYSIS_SYMBOL
from repro.instrument.isa import (ARG_REGS, FP, GP, RV, BinaryImage,
                                  Function, Instruction, Op, Section)

#: Registers every frame has, at the same slot in every function.
FIXED_SLOTS = (FP, GP) + ARG_REGS + (RV,)
FP_SLOT, GP_SLOT, ARG_SLOT, RV_SLOT = 0, 1, 2, 2 + len(ARG_REGS)
_ARGS = f"r[{ARG_SLOT}:{RV_SLOT}]"

_TRANSFERS = (Op.BEQZ, Op.BNEZ, Op.J, Op.RET)
_BLOCK_ENDS = _TRANSFERS + (Op.LABEL,)


def _step_limit(m) -> None:
    raise InstrumentationError(f"machine exceeded {m.max_steps} steps")


def _undefined_la(name: str) -> int:
    raise InstrumentationError(f"la of undefined function {name!r}")


def _ranged(hook, addr: int, count: int, is_store: bool, origin: str) -> None:
    """A ranged analysis call: the hook's ``range_access`` if it has one,
    else the identical per-word sequence."""
    range_hook = getattr(hook, "range_access", None)
    if range_hook is not None:
        range_hook(addr, count, is_store, origin)
    else:
        for k in range(count):
            hook(addr + k, is_store, origin)


def _plus(base: str, offset: int) -> str:
    if offset == 0:
        return base
    return f"{base} {'+' if offset > 0 else '-'} {abs(offset)}"


class _Emitter:
    """Operand resolution for one function: slots, labels, addresses."""

    def __init__(self, fn: Function, addresses: Dict[str, int]):
        self.fn = fn
        self.addresses = addresses
        self.slots = {name: i for i, name in enumerate(FIXED_SLOTS)}
        code = fn.instructions
        self.starts = [0] + [
            i + 1 for i, ins in enumerate(code[:-1])
            if ins.op in _BLOCK_ENDS]
        block_at = {start: b for b, start in enumerate(self.starts)}
        #: Label -> the block after it (-1: the label ends the function).
        self.labels = {ins.target: block_at.get(i + 1, -1)
                       for i, ins in enumerate(code) if ins.op is Op.LABEL}
        self.next = -1

    def reg(self, name) -> str:
        return f"r[{self.slots.setdefault(name, len(self.slots))}]"

    def label(self, ins: Instruction) -> int:
        block = self.labels.get(ins.target)
        if block is None:
            raise InstrumentationError(
                f"{self.fn.name}: '{ins.render()}' branches to undefined "
                f"label {ins.target!r} (origin {ins.origin!r})")
        return block

    def call(self, ins: Instruction) -> str:
        if ins.target != ANALYSIS_SYMBOL:
            return f"r[{RV_SLOT}] = m._call({ins.target!r}, {_ARGS})"
        # One procedure call however many words a ranged call (imm = run
        # length) announces — that is the cost batching removes.
        addr = _plus(self.reg(ins.srcs[0]) if ins.srcs else "0", ins.offset)
        is_store = len(ins.srcs) > 1 and ins.srcs[1] == "st"
        count = 1 if ins.imm is None else ins.imm
        if count == 1:
            hook = f"m.analysis_hook({addr}, {is_store}, {ins.origin!r})"
        else:
            hook = (f"ranged(m.analysis_hook, {addr}, {count}, {is_store}, "
                    f"{ins.origin!r})")
        return f"m.analysis_calls += 1; {hook}"

    def la(self, ins: Instruction) -> str:
        addr = self.addresses.get(ins.target)
        value = addr if addr is not None else f"undefined_la({ins.target!r})"
        return f"{self.reg(ins.reg)} = {value}"


def _alu(expr: str):
    return lambda e, ins: (f"{e.reg(ins.reg)} = "
                           + expr.format(*map(e.reg, ins.srcs)))


#: Exact truncation toward zero (the language has no ``%``: a wrong
#: quotient is a wrong hash bucket); a zero divisor yields 0.
_DIV = ("0 if {1} == 0 else (abs({0}) // abs({1}) if ({0} < 0) == ({1} < 0)"
        " else -(abs({0}) // abs({1})))")

#: One statement per opcode.  The table is the machine's instruction set:
#: an opcode missing here is rejected when its function is lowered.
_EMIT: Dict[Op, Callable[[_Emitter, Instruction], str]] = {
    Op.LD: lambda e, ins: (f"{e.reg(ins.reg)} = "
                           f"rd({_plus(e.reg(ins.base), ins.offset)})"),
    Op.ST: lambda e, ins: (f"wr({_plus(e.reg(ins.base), ins.offset)}, "
                           f"{e.reg(ins.reg)})"),
    Op.LI: lambda e, ins: f"{e.reg(ins.reg)} = {ins.imm!r}",
    Op.MOV: _alu("{}"),
    Op.ADD: _alu("{} + {}"),
    Op.SUB: _alu("{} - {}"),
    Op.MUL: _alu("{} * {}"),
    Op.DIV: _alu(_DIV),
    Op.AND: _alu("{} & {}"),
    Op.OR: _alu("{} | {}"),
    Op.XOR: _alu("{} ^ {}"),
    Op.SLT: _alu("1 if {} < {} else 0"),
    Op.SEQ: _alu("1 if {} == {} else 0"),
    Op.BEQZ: lambda e, ins: (f"return {e.label(ins)} "
                             f"if {e.reg(ins.srcs[0])} == 0 else {e.next}"),
    Op.BNEZ: lambda e, ins: (f"return {e.label(ins)} "
                             f"if {e.reg(ins.srcs[0])} != 0 else {e.next}"),
    Op.J: lambda e, ins: f"return {e.label(ins)}",
    Op.CALL: _Emitter.call,
    Op.CALLR: lambda e, ins: (f"r[{RV_SLOT}] = "
                              f"m._callr({e.reg(ins.srcs[0])}, {_ARGS})"),
    Op.LA: _Emitter.la,
    Op.RET: lambda e, ins: "return -1",
    Op.LABEL: lambda e, ins: "pass",
    Op.NOP: lambda e, ins: "pass",
}


def generate(fn: Function,
             addresses: Dict[str, int]) -> Tuple[Dict[str, int], str]:
    """The slot map and the block source of one function: ``b0`` … ``bn``
    and the ``blocks`` list, each statement carrying the instruction it
    came from as a trailing comment."""
    e = _Emitter(fn, addresses)
    code = fn.instructions
    lines: List[str] = []
    for b, start in enumerate(e.starts):
        last = b + 1 == len(e.starts)
        end = len(code) if last else e.starts[b + 1]
        e.next = -1 if last else b + 1
        lines.append(f"def b{b}(m, r, rd, wr):")
        if end > start:
            lines += [f"    s = m.steps + {end - start}",
                      "    if s > m.max_steps: limit(m)",
                      "    m.steps = s"]
        for i in range(start, end):
            ins = code[i]
            emit = _EMIT.get(ins.op)
            if emit is None:
                raise InstrumentationError(
                    f"{fn.name}: cannot execute instruction {i} "
                    f"'{ins.render()}' (origin {ins.origin!r})")
            lines.append(f"    {emit(e, ins)}  # {ins.render()}")
        if end == start or code[end - 1].op not in _TRANSFERS:
            lines.append(f"    return {e.next}")
    names = ", ".join(f"b{b}" for b in range(len(e.starts)))
    lines.append(f"blocks = [{names}]")
    return e.slots, "\n".join(lines) + "\n"


def _compile(source: str, filename: str) -> List[Callable[..., int]]:
    """Compile generated source to its block list.  The toolchain's only
    ``compile()``: a test patches it to prove no simulation thread lowers."""
    namespace = {"limit": _step_limit, "undefined_la": _undefined_la,
                 "ranged": _ranged}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["blocks"]


class LoweredFunction(NamedTuple):
    """The executable form of one ``Function``: its blocks take ``(machine,
    registers, read_word, write_word)`` and return the next block or -1."""

    fn: Function
    nregs: int
    blocks: List[Callable[..., int]]


class LoweredImage:
    """The lowered functions and the address tables of one image."""

    def __init__(self, image: BinaryImage):
        self.nfuncs = len(image.functions)
        self.addresses = {name: image.function_address(name)
                          for name in image.functions}
        self.names = {addr: name for name, addr in self.addresses.items()}
        self.code: Dict[str, LoweredFunction] = {}

    def function(self, fn: Function) -> LoweredFunction:
        code = self.code.get(fn.name)
        if code is None or code.fn is not fn:
            slots, source = generate(fn, self.addresses)
            code = self.code[fn.name] = LoweredFunction(
                fn, len(slots), _compile(source, f"<lowered {fn.name}>"))
        return code

    def listing(self, fn: Function) -> str:
        """``repro disasm --lowered``: the slot map and the block source."""
        slots, source = generate(fn, self.addresses)
        regs = " ".join(f"{name}={slot}" for name, slot in slots.items())
        return f".lowered {fn.name}\n; slots: {regs}\n{source}.endlowered"


def lowered(image: BinaryImage) -> LoweredImage:
    """The image's lowered form, functions filled in as they are called."""
    low = getattr(image, "_lowered", None)
    if low is None or low.nfuncs != len(image.functions):
        low = image._lowered = LoweredImage(image)
    return low


def lower_image(image: BinaryImage) -> LoweredImage:
    """Lower every application function now, in the calling thread."""
    low = lowered(image)
    for fn in image.functions.values():
        if fn.section is Section.APP:
            low.function(fn)
    return low
