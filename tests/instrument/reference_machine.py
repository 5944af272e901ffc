"""The step interpreter, kept as the executable spec of the mini-ISA.

This is the fetch/decode/execute loop ``repro.instrument.machine`` ran
before functions were lowered to basic-block code (PR 18), unchanged but
for ``div``, which states exact truncation toward zero (the float
division it replaced was wrong past 2**53) in a different form from the
one the lowering emits.  Production code has no copy of it: it exists so
``test_lowered_equivalence.py`` can hold the lowered machine against an
independent statement of the semantics, one instruction at a time.
"""

from typing import Dict, List, Optional

from repro.errors import InstrumentationError
from repro.instrument.atom import ANALYSIS_SYMBOL
from repro.instrument.isa import (ARG_REGS, FP, FUNC_BASE, GP, RV,
                                  BinaryImage, Function, Op, Section)
from repro.instrument.machine import STATIC_BASE, Machine


def function_by_address(image: BinaryImage, addr: int) -> Optional[str]:
    """Inverse of :meth:`BinaryImage.function_address`; None for a bad
    address."""
    index = addr - FUNC_BASE
    names = sorted(image.functions)
    if 0 <= index < len(names):
        return names[index]
    return None


class ReferenceMachine(Machine):
    """``Machine`` with calls executed instruction by instruction."""

    def _function_address(self, name: str) -> int:
        if name not in self.image.functions:
            raise InstrumentationError(
                f"la of undefined function {name!r}")
        return self.image.function_address(name)

    def _function_by_address(self, addr: int) -> str:
        name = function_by_address(self.image, addr)
        if name is None:
            raise InstrumentationError(
                f"callr through {addr}: not a function address")
        return name

    def _call(self, name: str, args: List[int]) -> int:
        fn = self.image.functions.get(name)
        if fn is None or fn.section is not Section.APP:
            intrinsic = self.intrinsics.get(name)
            if intrinsic is not None:
                return int(intrinsic(*args))
            return 0  # opaque library call
        frame = self.sp - max(1, fn.frame_words)
        saved_sp, self.sp = self.sp, frame
        regs: Dict[str, int] = {FP: frame, GP: STATIC_BASE}
        for i, v in enumerate(args):
            regs[ARG_REGS[i]] = v
        try:
            return self._exec(fn, regs)
        finally:
            self.sp = saved_sp

    def _exec(self, fn: Function, regs: Dict[str, int]) -> int:
        code = fn.instructions
        labels = {ins.target: i for i, ins in enumerate(code)
                  if ins.op is Op.LABEL}
        pc = 0
        get = lambda r: regs.get(r, 0)  # noqa: E731
        while pc < len(code):
            self.steps += 1
            if self.steps > self.max_steps:
                raise InstrumentationError(
                    f"machine exceeded {self.max_steps} steps")
            ins = code[pc]
            op = ins.op
            if op is Op.LD:
                regs[ins.reg] = self.read_word(get(ins.base) + ins.offset)
            elif op is Op.ST:
                self.write_word(get(ins.base) + ins.offset, get(ins.reg))
            elif op is Op.LI:
                regs[ins.reg] = ins.imm
            elif op is Op.MOV:
                regs[ins.reg] = get(ins.srcs[0])
            elif op is Op.ADD:
                regs[ins.reg] = get(ins.srcs[0]) + get(ins.srcs[1])
            elif op is Op.SUB:
                regs[ins.reg] = get(ins.srcs[0]) - get(ins.srcs[1])
            elif op is Op.MUL:
                regs[ins.reg] = get(ins.srcs[0]) * get(ins.srcs[1])
            elif op is Op.DIV:
                num, denom = get(ins.srcs[0]), get(ins.srcs[1])
                if denom == 0:
                    regs[ins.reg] = 0
                else:
                    quot = num // denom  # floor; step up if it rounded
                    if quot < 0 and quot * denom != num:  # away from zero
                        quot += 1
                    regs[ins.reg] = quot
            elif op is Op.AND:
                regs[ins.reg] = get(ins.srcs[0]) & get(ins.srcs[1])
            elif op is Op.OR:
                regs[ins.reg] = get(ins.srcs[0]) | get(ins.srcs[1])
            elif op is Op.XOR:
                regs[ins.reg] = get(ins.srcs[0]) ^ get(ins.srcs[1])
            elif op is Op.SLT:
                regs[ins.reg] = 1 if get(ins.srcs[0]) < get(ins.srcs[1]) else 0
            elif op is Op.SEQ:
                regs[ins.reg] = 1 if get(ins.srcs[0]) == get(ins.srcs[1]) else 0
            elif op is Op.BEQZ:
                if get(ins.srcs[0]) == 0:
                    pc = labels[ins.target]
            elif op is Op.BNEZ:
                if get(ins.srcs[0]) != 0:
                    pc = labels[ins.target]
            elif op is Op.J:
                pc = labels[ins.target]
            elif op is Op.CALL:
                if ins.target == ANALYSIS_SYMBOL:
                    self.analysis_calls += 1
                    base_val = get(ins.srcs[0]) if ins.srcs else 0
                    is_store = (ins.srcs[1] == "st"
                                if len(ins.srcs) > 1 else False)
                    self.analysis_hook(base_val + ins.offset, is_store,
                                       ins.origin)
                else:
                    call_args = [get(ARG_REGS[i]) for i in range(6)]
                    regs[RV] = self._call(ins.target, call_args)
            elif op is Op.LA:
                regs[ins.reg] = self._function_address(ins.target)
            elif op is Op.CALLR:
                callee = self._function_by_address(get(ins.srcs[0]))
                call_args = [get(ARG_REGS[i]) for i in range(6)]
                regs[RV] = self._call(callee, call_args)
            elif op is Op.RET:
                return get(RV)
            elif op in (Op.LABEL, Op.NOP):
                pass
            else:  # pragma: no cover - exhaustive
                raise InstrumentationError(f"cannot execute {ins.render()}")
            pc += 1
        return get(RV)
