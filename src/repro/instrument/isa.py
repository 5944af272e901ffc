"""A miniature RISC instruction set with Alpha-flavoured conventions.

What matters for the paper's static filter is the *addressing discipline*:

* stack variables are addressed relative to the frame pointer ``fp``;
* statically allocated globals are addressed relative to the global
  pointer ``gp``;
* dynamically allocated (potentially shared) data is addressed through
  general registers holding pointers.

Everything else (ALU ops, branches, calls) exists so that compiled kernels
are real programs the interpreter can run, and so that instruction-count
ratios (memory ops vs. total) are realistic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# Dedicated registers (by convention, like the Alpha calling standard).
FP = "fp"    # frame pointer: stack accesses
GP = "gp"    # global pointer: statically-allocated data
SP = "sp"    # stack pointer (alias class of fp for the filter)
RA = "ra"    # return address
ZERO = "zero"
#: Argument registers.
ARG_REGS = tuple(f"a{i}" for i in range(6))
#: Return-value register.
RV = "v0"
#: Caller-saved temporaries available to the code generator.
TEMP_REGS = tuple(f"t{i}" for i in range(12))

STACK_BASES = frozenset({FP, SP})
STATIC_BASES = frozenset({GP})

#: Base of the function-address space: ``Op.LA`` materializes
#: ``FUNC_BASE + index`` where the index is the symbol's rank in the
#: linked binary's sorted name order.  Well above every data region, so a
#: function address can never alias a stack/static/heap word.
FUNC_BASE = 1 << 20


class Op(enum.Enum):
    """Opcodes.  ``LD``/``ST`` are the only memory instructions."""

    LD = "ld"        # ld   rd, off(base)
    ST = "st"        # st   rs, off(base)
    LI = "li"        # li   rd, imm
    MOV = "mov"      # mov  rd, rs
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLT = "slt"      # set-less-than
    SEQ = "seq"      # set-equal
    BEQZ = "beqz"    # branch to label if rs == 0
    BNEZ = "bnez"
    J = "j"          # unconditional jump to label
    CALL = "call"    # call function by name
    CALLR = "callr"  # call through a register holding a function address
    LA = "la"        # la rd, symbol — load a function-address constant
    RET = "ret"
    LABEL = "label"  # pseudo-instruction
    NOP = "nop"

MEMORY_OPS = (Op.LD, Op.ST)
ALU_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.AND, Op.OR, Op.XOR,
           Op.SLT, Op.SEQ)


class Section(enum.Enum):
    """Text sections — the unit the static filter's library rule works on."""

    APP = "app"
    LIBC = "library"
    CVM = "cvm"


@dataclass
class Instruction:
    """One instruction.

    For memory ops, ``base`` is the base register and ``offset`` the
    word displacement; ``reg`` is the data register.  For ALU ops,
    ``reg`` is the destination and ``srcs`` the operands.  ``imm`` holds
    immediates, ``target`` labels/callees.  ``origin`` carries the source
    position for diagnostics and PC attribution.
    """

    op: Op
    reg: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    base: Optional[str] = None
    offset: int = 0
    imm: Optional[int] = None
    target: Optional[str] = None
    origin: str = ""

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    def render(self) -> str:
        if self.op is Op.LD:
            return f"ld {self.reg}, {self.offset}({self.base})"
        if self.op is Op.ST:
            return f"st {self.reg}, {self.offset}({self.base})"
        if self.op is Op.LI:
            return f"li {self.reg}, {self.imm}"
        if self.op is Op.MOV:
            return f"mov {self.reg}, {self.srcs[0]}"
        if self.op in ALU_OPS:
            return f"{self.op.value} {self.reg}, {', '.join(self.srcs)}"
        if self.op in (Op.BEQZ, Op.BNEZ):
            return f"{self.op.value} {self.srcs[0]}, {self.target}"
        if self.op is Op.J:
            return f"j {self.target}"
        if self.op is Op.CALL:
            return f"call {self.target}"
        if self.op is Op.CALLR:
            return f"callr {self.srcs[0]}"
        if self.op is Op.LA:
            return f"la {self.reg}, {self.target}"
        if self.op is Op.LABEL:
            return f"{self.target}:"
        return self.op.value


@dataclass
class Function:
    """A compiled or synthetic function."""

    name: str
    instructions: List[Instruction]
    section: Section = Section.APP
    #: Number of stack words the frame uses (locals + spills).
    frame_words: int = 0

    @property
    def memory_instructions(self) -> List[Instruction]:
        return [ins for ins in self.instructions if ins.is_memory]

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class ObjectFile:
    """A set of functions destined for one section."""

    name: str
    functions: List[Function] = field(default_factory=list)

    def add(self, fn: Function) -> None:
        self.functions.append(fn)


@dataclass
class BinaryImage:
    """A linked executable: functions from all sections, call-resolvable."""

    name: str
    functions: Dict[str, Function] = field(default_factory=dict)
    entry: Optional[str] = None

    def add(self, fn: Function) -> None:
        if fn.name in self.functions:
            raise ValueError(f"duplicate symbol {fn.name!r}")
        self.functions[fn.name] = fn

    def all_instructions(self) -> Iterator[Tuple[Function, Instruction]]:
        for name in sorted(self.functions):
            fn = self.functions[name]
            for ins in fn.instructions:
                yield fn, ins

    # -- function addresses (first-class functions) -------------------- #
    def _address_table(self) -> Dict[str, int]:
        cached = getattr(self, "_fa_cache", None)
        if cached is not None and cached[0] == len(self.functions):
            return cached[1]
        table = {name: FUNC_BASE + i
                 for i, name in enumerate(sorted(self.functions))}
        self._fa_cache = (len(self.functions), table)
        return table

    def function_address(self, name: str) -> int:
        """The address ``Op.LA`` materializes for ``name``.

        Keyed on the *sorted symbol order*, which instrumentation
        preserves (it rewrites bodies, never names), so function values
        survive every binary rewrite unchanged.
        """
        table = self._address_table()
        addr = table.get(name)
        if addr is None:
            raise KeyError(f"binary {self.name!r}: no function {name!r}")
        return addr

    def load_store_count(self) -> int:
        return sum(1 for _fn, ins in self.all_instructions() if ins.is_memory)

    def total_instructions(self) -> int:
        return sum(len(fn) for fn in self.functions.values())
