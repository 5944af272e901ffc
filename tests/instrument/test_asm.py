"""Assembler/disassembler round-trips."""

import pytest

from repro.errors import InstrumentationError
from repro.instrument.asm import (assemble, assemble_line, disassemble,
                                  disassemble_function)
from repro.instrument.binaries import binary_for
from repro.instrument.isa import Instruction, Op, Section
from repro.instrument.kernels import KERNEL_SOURCES
from repro.instrument.machine import Machine
from repro.instrument.linker import link
from repro.instrument.parser import compile_source


@pytest.mark.parametrize("line,op", [
    ("ld t0, 4(fp)", Op.LD),
    ("st a0, -2(t3)", Op.ST),
    ("li v0, -17", Op.LI),
    ("mov t1, a2", Op.MOV),
    ("add t0, t0, t1", Op.ADD),
    ("slt t2, t0, t1", Op.SLT),
    ("beqz t0, f.else1", Op.BEQZ),
    ("j f.head2", Op.J),
    ("call malloc", Op.CALL),
    ("f.head2:", Op.LABEL),
    ("ret", Op.RET),
    ("nop", Op.NOP),
])
def test_assemble_line_ops(line, op):
    assert assemble_line(line).op is op


def test_assemble_line_roundtrip():
    for line in ("ld t0, 4(fp)", "st a0, 0(t3)", "li v0, 5",
                 "add t0, t0, t1", "beqz t0, x.l1", "call foo", "ret"):
        ins = assemble_line(line)
        from repro.instrument.asm import disassemble_instruction
        assert disassemble_instruction(ins) == line


def test_bad_line_rejected():
    with pytest.raises(InstrumentationError):
        assemble_line("frobnicate t0")


def test_assemble_function_block():
    text = """
.func main section=app frame=2
    st a0, 0(fp)
    ld t0, 0(fp)
    li t1, 2
    mul t0, t0, t1
    mov v0, t0
    ret
.endfunc
"""
    obj = assemble(text)
    assert len(obj.functions) == 1
    fn = obj.functions[0]
    assert fn.name == "main" and fn.section is Section.APP
    assert fn.frame_words == 2
    # Executable after linking.
    image = link("asmtest", [obj], libraries=[])
    assert Machine(image).run(21) == 42


def test_assemble_errors():
    with pytest.raises(InstrumentationError):
        assemble("ld t0, 0(fp)")  # outside .func
    with pytest.raises(InstrumentationError):
        assemble(".func f section=app\nret")  # unterminated
    with pytest.raises(InstrumentationError):
        assemble(".func f section=mars\n.endfunc")


def test_comments_and_blank_lines_ignored():
    obj = assemble("""
# a comment
.func f section=app
    li v0, 1   # inline comment
    ret
.endfunc
""")
    assert len(obj.functions[0].instructions) == 2


@pytest.mark.parametrize("app", ["sor", "tsp"])
def test_compiled_kernels_roundtrip(app):
    """disassemble -> assemble preserves semantics for real kernels."""
    obj = compile_source(KERNEL_SOURCES[app], app)
    text = disassemble(obj)
    rebuilt = assemble(text, name=obj.name)
    assert [f.name for f in rebuilt.functions] == \
        [f.name for f in obj.functions]
    for a, b in zip(obj.functions, rebuilt.functions):
        assert len(a.instructions) == len(b.instructions)
        for x, y in zip(a.instructions, b.instructions):
            assert x.op is y.op and x.reg == y.reg and x.base == y.base \
                and x.offset == y.offset and x.target == y.target
        assert a.frame_words == b.frame_words


def test_roundtrip_preserves_execution():
    obj = compile_source(KERNEL_SOURCES["sor"], "sor")
    rebuilt = assemble(disassemble(obj), name="sor")
    img1 = link("a", [obj], libraries=[])
    img2 = link("b", [rebuilt], libraries=[])
    assert Machine(img1).run(6, 6) == Machine(img2).run(6, 6)


def test_disassemble_full_binary_is_large():
    text = disassemble(binary_for("sor"))
    assert text.count(".func") > 300  # app + synthesized libraries
    assert "section=library" in text and "section=cvm" in text
