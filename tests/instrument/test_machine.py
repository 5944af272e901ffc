"""The mini-ISA interpreter, including instrumented execution."""

import enum

import pytest

from repro.errors import InstrumentationError
from repro.instrument import kernel_ast as K
from repro.instrument.atom import AtomRewriter
from repro.instrument.compiler import compile_kernel
from repro.instrument.isa import (FUNC_BASE, Function, Instruction, Op,
                                  Section)
from repro.instrument.linker import link
from repro.instrument.lower import lower_image
from repro.instrument.machine import (HEAP_BASE, AnalysisCounter, Machine)
from tests.instrument.test_lowered_equivalence import app, image_of


def build(functions, statics=()):
    prog = K.KernelProgram("t", statics=statics, functions=functions)
    return link("t", [compile_kernel(prog)], libraries=[])


def test_arithmetic_and_return():
    img = build([K.KernelFunction(
        "main", params=("a", "b"),
        body=[K.Return(K.Bin("+", K.Bin("*", K.Param("a"), K.Param("b")),
                             K.Const(7)))])])
    assert Machine(img).run(6, 7) == 49


def test_loop_sum():
    img = build([K.KernelFunction(
        "main", params=("n",), locals_=("i", "s"),
        body=[K.Assign(K.Local("s"), K.Const(0)),
              K.For(K.Local("i"), K.Const(0), K.Param("n"),
                    [K.Assign(K.Local("s"),
                              K.Bin("+", K.Local("s"), K.Local("i")))]),
              K.Return(K.Local("s"))])])
    assert Machine(img).run(10) == 45


def test_if_else():
    img = build([K.KernelFunction(
        "main", params=("x",),
        body=[K.If(K.Bin("<", K.Param("x"), K.Const(10)),
                   [K.Return(K.Const(1))],
                   [K.Return(K.Const(2))])])])
    m = Machine(img)
    assert m.run(5) == 1
    assert Machine(img).run(50) == 2


def test_while_loop():
    img = build([K.KernelFunction(
        "main", params=("n",), locals_=("c",),
        body=[K.Assign(K.Local("c"), K.Const(0)),
              K.While(K.Bin("<", K.Local("c"), K.Param("n")),
                      [K.Assign(K.Local("c"),
                                K.Bin("+", K.Local("c"), K.Const(3)))]),
              K.Return(K.Local("c"))])])
    assert Machine(img).run(10) == 12


def test_function_calls_and_recursion_free_chain():
    img = build([
        K.KernelFunction("double", params=("x",),
                         body=[K.Return(K.Bin("*", K.Param("x"), K.Const(2)))]),
        K.KernelFunction("main", params=("x",),
                         body=[K.Return(K.CallExpr(
                             "double", (K.CallExpr("double", (K.Param("x"),)),)))]),
    ])
    assert Machine(img).run(3) == 12


def test_malloc_and_heap_access():
    img = build([K.KernelFunction(
        "main", locals_=("p",),
        body=[K.Assign(K.Local("p"), K.CallExpr("malloc", (K.Const(4),))),
              K.Assign(K.Deref(K.Local("p"), K.Const(2)), K.Const(99)),
              K.Return(K.Deref(K.Local("p"), K.Const(2)))])])
    m = Machine(img)
    assert m.run() == 99
    assert m.heap_next > HEAP_BASE


def test_statics_persist_across_calls():
    img = build([
        K.KernelFunction("bump", body=[
            K.Assign(K.Static("g"), K.Bin("+", K.Static("g"), K.Const(1)))]),
        K.KernelFunction("main", body=[
            K.ExprStmt(K.CallExpr("bump")),
            K.ExprStmt(K.CallExpr("bump")),
            K.Return(K.Static("g"))]),
    ], statics=("g",))
    assert Machine(img).run() == 2


def test_unknown_call_is_opaque_zero():
    img = build([K.KernelFunction(
        "main", body=[K.Return(K.CallExpr("printf", (K.Const(1),)))])])
    assert Machine(img).run() == 0


def test_custom_intrinsic():
    img = build([K.KernelFunction(
        "main", body=[K.Return(K.CallExpr("magic", ()))])])
    m = Machine(img)
    m.intrinsic("magic", lambda *a: 1234)
    assert m.run() == 1234


def test_step_limit():
    img = build([K.KernelFunction(
        "main", locals_=("c",),
        body=[K.Assign(K.Local("c"), K.Const(1)),
              K.While(K.Bin("<", K.Const(0), K.Local("c")),
                      [K.Assign(K.Local("c"), K.Const(1))])])])
    with pytest.raises(InstrumentationError):
        Machine(img, max_steps=5000).run()


def test_instrumented_binary_fires_analysis_calls():
    img = build([K.KernelFunction(
        "main", locals_=("p", "i"),
        body=[K.Assign(K.Local("p"), K.CallExpr("malloc", (K.Const(8),))),
              K.For(K.Local("i"), K.Const(0), K.Const(8),
                    [K.Assign(K.Deref(K.Local("p"), K.Local("i")),
                              K.Local("i"))]),
              K.Return(K.Const(0))])])
    instrumented = AtomRewriter().instrument(img)
    hook = AnalysisCounter()
    m = Machine(instrumented, analysis_hook=hook)
    m.run()
    assert m.analysis_calls == 8
    assert hook.shared == 8       # heap addresses classify as shared
    assert hook.private == 0
    # Addresses and access kinds recorded.
    assert all(addr >= HEAP_BASE and is_store for addr, is_store in hook.events)


def test_uninstrumented_stack_accesses_silent():
    img = build([K.KernelFunction(
        "main", locals_=("a", "b"),
        body=[K.Assign(K.Local("a"), K.Const(1)),
              K.Assign(K.Local("b"), K.Local("a")),
              K.Return(K.Local("b"))])])
    instrumented = AtomRewriter().instrument(img)
    m = Machine(instrumented)
    assert m.run() == 1
    assert m.analysis_calls == 0


# ---------------------------------------------------------------------- #
# Hand-built images: arithmetic corners, boundary errors, the contract
# the lowered execution (repro.instrument.lower) must keep.
# ---------------------------------------------------------------------- #
DIVIDE = app("main", Instruction(Op.DIV, reg="v0", srcs=("a0", "a1")),
             Instruction(Op.RET))


@pytest.mark.parametrize("num, denom, quotient", [
    # Float division rounds these: (2**60 + 1) / 3 is ...304.0.
    (2**60 + 1, 3, 384307168202282325),
    (-(2**60) - 1, 3, -384307168202282325),
    (2**60 + 1, -3, -384307168202282325),
    (-(2**60) - 1, -3, 384307168202282325),
    (2**62 + 3, 2**31 - 1, 2147483649),
    # Truncation is toward zero, not toward minus infinity.
    (7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (-1, 2, 0),
    (6, 0, 0), (-6, 0, 0),
])
def test_div_is_exact_truncation_toward_zero(num, denom, quotient):
    assert Machine(image_of(DIVIDE)).run(num, denom) == quotient


def test_hash_bucket_of_a_large_key_is_its_true_remainder():
    """The language has no ``%``: ``key - (key / nb) * nb`` is hashtab's
    bucket hash, so an inexact quotient is a wrong bucket."""
    from repro.instrument.parser import compile_source
    src = "func main(key, nb) { return key - (key / nb) * nb; }"
    image = link("t", [compile_source(src, "t")], libraries=[],
                 include_cvm=False)
    key = 2**60 + 1
    assert Machine(image).run(key, 3) == key % 3 == 2


def test_dangling_branch_target_is_rejected_before_anything_runs():
    image = image_of(app(
        "main",
        Instruction(Op.ST, reg="a0", base="fp", offset=0),
        Instruction(Op.BNEZ, srcs=("a0",), target="nowhere",
                    origin="main:If"),
        Instruction(Op.RET)))
    m = Machine(image)
    with pytest.raises(InstrumentationError) as err:
        m.run(0)     # the branch would not even be taken
    for part in ("main", "nowhere", "bnez a0, nowhere", "main:If"):
        assert part in str(err.value)
    assert m.memory == {} and m.steps == 0
    with pytest.raises(InstrumentationError, match="nowhere"):
        lower_image(image)


def test_unknown_opcode_is_rejected_at_lowering():
    class Ext(enum.Enum):
        FROB = "frob"

    image = image_of(app(
        "main", Instruction(Op.RET),
        Instruction(Ext.FROB, origin="main:Frob")))
    with pytest.raises(InstrumentationError) as err:
        lower_image(image)
    for part in ("main", "instruction 1", "frob", "main:Frob"):
        assert part in str(err.value)
    with pytest.raises(InstrumentationError, match="frob"):
        Machine(image).run()     # unreachable code, rejected all the same


def test_a_seventh_argument_is_rejected_by_name():
    image = image_of(app("main", Instruction(Op.RET)))
    with pytest.raises(InstrumentationError) as err:
        Machine(image).run(1, 2, 3, 4, 5, 6, 7)
    assert "main" in str(err.value) and "7 arguments" in str(err.value)
    assert "a0..a5" in str(err.value)
    assert Machine(image).run(1, 2, 3, 4, 5, 6) == 0


def test_memory_seam_sees_every_load_and_store():
    class Logged(Machine):
        def __init__(self, image):
            super().__init__(image)
            self.log = []

        def read_word(self, addr):
            self.log.append(("ld", addr))
            return 100 + addr

        def write_word(self, addr, value):
            self.log.append(("st", addr, value))

    m = Logged(image_of(app(
        "main",
        Instruction(Op.LD, reg="t0", base="a0", offset=2),
        Instruction(Op.ST, reg="t0", base="a0", offset=-1),
        Instruction(Op.LD, reg="v0", base="gp", offset=0),
        Instruction(Op.RET))))
    assert m.run(50) == 100 + (1 << 16)
    assert m.log == [("ld", 52), ("st", 49, 152), ("ld", 1 << 16)]
    assert m.memory == {}


def test_an_image_nobody_lowered_runs_and_follows_its_edits():
    """The lowered form belongs to the image: built on first use, rebuilt
    for a replaced function, and — since ``la`` constants are ranks in
    the sorted symbol table — rebuilt whole when a symbol is added."""
    image = image_of(
        app("k", Instruction(Op.LI, reg="v0", imm=1), Instruction(Op.RET)),
        app("main", Instruction(Op.LA, reg="t0", target="k"),
            Instruction(Op.CALLR, srcs=("t0",)), Instruction(Op.RET)))
    assert not hasattr(image, "_lowered")
    assert Machine(image).run() == 1
    image.functions["k"] = app(
        "k", Instruction(Op.LI, reg="v0", imm=2), Instruction(Op.RET))
    assert Machine(image).run() == 2
    image.add(app("a_new_first_symbol", Instruction(Op.RET)))
    assert image.function_address("k") == FUNC_BASE + 1
    assert Machine(image).run() == 2


def test_nested_calls_restore_sp_when_a_callee_raises():
    def boom(*_args):
        raise InstrumentationError("boom")

    image = image_of(
        Function("inner", [Instruction(Op.CALL, target="boom"),
                           Instruction(Op.RET)], Section.APP, frame_words=7),
        Function("main", [Instruction(Op.CALL, target="inner"),
                          Instruction(Op.RET)], Section.APP, frame_words=3))
    m = Machine(image)
    m.intrinsic("boom", boom)
    sp = m.sp
    with pytest.raises(InstrumentationError, match="boom"):
        m.run()
    assert m.sp == sp
