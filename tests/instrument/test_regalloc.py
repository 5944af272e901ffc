"""Linear-scan register allocation: fewer loads/stores, same semantics.

The contract of :mod:`repro.instrument.regalloc`: ``regalloc="linear"``
register-homes scalars and binds temporaries by liveness, so every
kernel's generated code carries measurably fewer loads/stores than the
naive single-pass codegen — while computing the same values, and while
the default ``"naive"`` mode stays byte-identical to what the deleted
``_RegPool`` compiler always produced (the paper tables depend on it).
"""

import pytest

from repro.errors import CompileError
from repro.instrument.binaries import binary_for
from repro.instrument.compiler import compile_kernel
from repro.instrument.isa import Function, Instruction, Op, Section
from repro.instrument.kernels import KERNEL_SOURCES
from repro.instrument.linker import link
from repro.instrument.machine import Machine
from repro.instrument.parser import compile_source, parse_kernel
from repro.instrument.regalloc import (ALLOCATABLE, AllocationReport,
                                       NaiveBinding, bind_registers,
                                       live_intervals)

ALL_KERNELS = list(KERNEL_SOURCES)


def _app_mem_ops(image):
    return sum(1 for fn in image.functions.values()
               if fn.section is Section.APP
               for ins in fn.instructions if ins.is_memory)


def _run_source(src, mode, *args):
    obj = compile_source(src, "t", regalloc=mode)
    img = link("t", [obj], libraries=[], include_cvm=False)
    return Machine(img).run(*args)


# ---------------------------------------------------------------------- #
# The optimization claim.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("app", ALL_KERNELS)
def test_linear_reduces_loads_stores(app):
    naive = binary_for(app)
    linear = binary_for(app, regalloc="linear")
    assert _app_mem_ops(linear) < _app_mem_ops(naive)
    assert linear.load_store_count() < naive.load_store_count()


@pytest.mark.parametrize("app", ALL_KERNELS)
def test_linear_same_dynamic_result(app):
    naive = Machine(binary_for(app))
    linear = Machine(binary_for(app, regalloc="linear"))
    assert naive.run() == linear.run()


def test_default_mode_is_naive():
    """The Table 2 pipeline stays pinned to the unoptimized codegen."""
    prog = parse_kernel(KERNEL_SOURCES["sor"], "sor")
    default = compile_kernel(prog)
    explicit = compile_kernel(prog, regalloc="naive")
    for a, b in zip(default.functions, explicit.functions):
        assert a.instructions == b.instructions
        assert a.frame_words == b.frame_words


def test_unknown_mode_rejected():
    with pytest.raises(CompileError, match="regalloc"):
        compile_kernel(parse_kernel(KERNEL_SOURCES["sor"], "sor"),
                       regalloc="ssa")


# ---------------------------------------------------------------------- #
# Semantic equivalence under register pressure (forced spills).
# ---------------------------------------------------------------------- #
SPILL_SRC = """
func main() {
  local a; local b; local c; local d; local e; local f; local g;
  local h; local i; local j; local k; local l; local m; local n;
  a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7;
  h = 8; i = 9; j = 10; k = 11; l = 12; m = 13; n = 14;
  return a + b * c + d * e + f * g + h * i + j * k + l * m + n
       + (a + b) * (c + d) * (e + f) + (g + h) * (i + j);
}
"""
SPILL_EXPECT = (1 + 2 * 3 + 4 * 5 + 6 * 7 + 8 * 9 + 10 * 11 + 12 * 13 + 14
                + (1 + 2) * (3 + 4) * (5 + 6) + (7 + 8) * (9 + 10))


def test_spill_kernel_same_result_both_modes():
    """14 simultaneously-live locals > 10 allocatable registers: linear
    mode must spill and still agree with the naive answer."""
    assert _run_source(SPILL_SRC, "naive") == SPILL_EXPECT
    assert _run_source(SPILL_SRC, "linear") == SPILL_EXPECT


def test_spill_kernel_actually_spills():
    prog = parse_kernel(SPILL_SRC, "spill")
    from repro.instrument.compiler import _FunctionCompiler
    fc = _FunctionCompiler(prog, prog.functions[0], {}, regalloc="linear")
    vfn = fc.compile()
    _bound, report = bind_registers(vfn)
    assert report.spilled > 0
    assert report.spill_slots > 0


def test_spill_code_is_stack_private():
    """Spill loads/stores are fp-relative, so the static filter never
    instruments them — allocation cannot inflate analysis calls."""
    from repro.instrument.atom import AccessClass, classify
    obj = compile_source(SPILL_SRC, "spill", regalloc="linear")
    for fn in obj.functions:
        for ins in fn.instructions:
            if ins.is_memory:
                assert classify(fn, ins) is AccessClass.STACK


def test_loop_counter_register_homed():
    """The central payoff: a loop induction variable compiles to zero
    per-iteration frame traffic in linear mode."""
    src = """
    func main(n) {
      local i; local s;
      s = 0;
      for (i = 0; i < n; i += 1) { s = s + i; }
      return s;
    }
    """
    naive = compile_source(src, "loop", regalloc="naive")
    linear = compile_source(src, "loop", regalloc="linear")
    n_mem = sum(1 for f in naive.functions
                for i in f.instructions if i.is_memory)
    l_mem = sum(1 for f in linear.functions
                for i in f.instructions if i.is_memory)
    assert l_mem == 0 and n_mem > 0
    assert _run_source(src, "naive", 10) == _run_source(src, "linear", 10) \
        == 45


# ---------------------------------------------------------------------- #
# The naive binding keeps the exhaustion contract, now with location.
# ---------------------------------------------------------------------- #
def test_naive_exhaustion_names_function_and_line():
    deep = "1"
    for k in range(2, 16):
        deep = f"{k} + ({deep})"
    src = f"func main() {{\n  return {deep};\n}}\n"
    with pytest.raises(CompileError) as err:
        compile_source(src, "deep", regalloc="naive")
    msg = str(err.value)
    assert "expression too deep" in msg
    assert "'main'" in msg
    assert "line 2" in msg


def test_linear_mode_compiles_deep_expressions():
    deep = "1"
    for k in range(2, 16):
        deep = f"{k} + ({deep})"
    src = f"func main() {{\n  return {deep};\n}}\n"
    assert _run_source(src, "linear") == sum(range(1, 16))


def test_naive_binding_hands_out_t0_first():
    b = NaiveBinding(lambda: ("f", 0))
    assert b.take() == "t0"
    assert b.take() == "t1"
    b.give("t0")
    assert b.take() == "t0"  # LIFO reuse, like the old _RegPool


# ---------------------------------------------------------------------- #
# Allocator internals.
# ---------------------------------------------------------------------- #
def _vcode(*ins):
    return Function("v", list(ins), Section.APP, frame_words=0)


def test_live_intervals_basic():
    code = [
        Instruction(Op.LI, reg="%0", imm=1),
        Instruction(Op.LI, reg="%1", imm=2),
        Instruction(Op.ADD, reg="%2", srcs=("%0", "%1")),
        Instruction(Op.MOV, reg="v0", srcs=("%2",)),
        Instruction(Op.RET),
    ]
    ivs = {iv.vreg: (iv.start, iv.end) for iv in live_intervals(code)}
    assert ivs["%0"] == (0, 2)
    assert ivs["%1"] == (1, 2)
    assert ivs["%2"] == (2, 3)


def test_bind_registers_passthrough_without_vregs():
    fn = _vcode(Instruction(Op.LI, reg="t0", imm=1), Instruction(Op.RET))
    bound, report = bind_registers(fn)
    assert bound is fn
    assert report == AllocationReport("v", vregs=0)


def test_bind_registers_spills_beyond_register_file():
    n = len(ALLOCATABLE) + 3
    code = [Instruction(Op.LI, reg=f"%{i}", imm=i) for i in range(n)]
    acc = "%0"
    for i in range(1, n):
        code.append(Instruction(Op.ADD, reg=f"%{n + i}",
                                srcs=(acc, f"%{i}")))
        acc = f"%{n + i}"
    code.append(Instruction(Op.MOV, reg="v0", srcs=(acc,)))
    code.append(Instruction(Op.RET))
    bound, report = bind_registers(_vcode(*code))
    assert report.spilled >= 3
    assert bound.frame_words == report.spill_slots
    m = Machine(link("t", _obj_of(bound), libraries=[], include_cvm=False))
    assert m.run() == sum(range(n))
    for ins in bound.instructions:
        for r in (ins.reg, ins.base, *ins.srcs):
            assert not (r or "").startswith("%")


def _obj_of(fn):
    from repro.instrument.isa import ObjectFile
    obj = ObjectFile("t")
    obj.add(Function("main", list(fn.instructions), Section.APP,
                     frame_words=fn.frame_words))
    return [obj]
