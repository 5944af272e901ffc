"""Runtime semantics of the grown kernel language: structs, shared-heap
allocation (``new``/``delete`` with free-list reuse), address-of, and
first-class function values — each exercised end to end (parse, compile
under both register allocators, link, execute)."""

import pytest

from repro.errors import CompileError, InstrumentationError, LinkError
from repro.instrument.atom import ANALYSIS_SYMBOL, AtomRewriter
from repro.instrument.isa import FUNC_BASE, Op
from repro.instrument.linker import link
from repro.instrument.machine import HEAP_BASE, AnalysisCounter, Machine
from repro.instrument.parser import compile_source
from tests.instrument.reference_machine import function_by_address

MODES = ("naive", "linear")


def build(src, mode="naive", **kw):
    obj = compile_source(src, "t", regalloc=mode)
    return link("t", [obj], libraries=[], include_cvm=False, **kw)


def run(src, *args, mode="naive"):
    return Machine(build(src, mode)).run(*args)


# ---------------------------------------------------------------------- #
# Structs and field access.
# ---------------------------------------------------------------------- #
STRUCT_SRC = """
struct Pair { a; b; }

func main() {
  local p: Pair;
  p = new Pair;
  p.a = 3;
  p.b = 39;
  return p.a + p.b;
}
"""


@pytest.mark.parametrize("mode", MODES)
def test_struct_fields(mode):
    assert run(STRUCT_SRC, mode=mode) == 42


@pytest.mark.parametrize("mode", MODES)
def test_chained_field_access(mode):
    src = """
    struct Node { val; next: Node; }
    func main() {
      local a: Node; local b: Node;
      a = new Node; b = new Node;
      a.next = b;
      b.val = 7;
      return a.next.val;
    }
    """
    assert run(src, mode=mode) == 7


def test_field_offsets_resolved_at_parse_time():
    obj = compile_source(STRUCT_SRC, "t")
    stores = [i for f in obj.functions for i in f.instructions
              if i.op is Op.ST and i.base not in ("fp", "gp")]
    assert {i.offset for i in stores} == {0, 1}  # p.a at +0, p.b at +1


# ---------------------------------------------------------------------- #
# Heap allocation and the free list.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", MODES)
def test_delete_recycles_blocks(mode):
    """Exact-size LIFO reuse: free then reallocate the same size gives
    back the same address, so churn revisits the same words."""
    src = """
    struct Node { val; next: Node; }
    func main() {
      local a: Node; local b: Node;
      a = new Node;
      delete a;
      b = new Node;
      if (a == b) { return 1; }
      return 0;
    }
    """
    assert run(src, mode=mode) == 1


def test_different_sizes_do_not_alias():
    src = """
    func main() {
      local a; local b;
      a = new [4];
      delete a;
      b = new [8];
      if (a == b) { return 1; }
      return 0;
    }
    """
    assert run(src) == 0


def test_double_free_raises():
    src = """
    struct Node { val; next: Node; }
    func main() {
      local a: Node;
      a = new Node;
      delete a;
      delete a;
      return 0;
    }
    """
    with pytest.raises(InstrumentationError, match="unallocated"):
        run(src)


def test_new_allocations_are_heap_shared():
    """``new`` storage lands in the heap region, so its accesses survive
    the static filter and classify shared at run time."""
    img = AtomRewriter().instrument(build(STRUCT_SRC))
    hook = AnalysisCounter()
    m = Machine(img, analysis_hook=hook)
    assert m.run() == 42
    assert hook.shared >= 4  # two field stores + two field loads
    assert all(addr >= HEAP_BASE for addr, _ in hook.events)


# ---------------------------------------------------------------------- #
# Address-of.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", MODES)
def test_addr_of_aliases_variable(mode):
    """Writes through &x must be visible through x — in linear mode this
    forces x to stay memory-homed."""
    src = """
    func main() {
      local x; local px;
      x = 1;
      px = &x;
      px[0] = px[0] + 41;
      return x;
    }
    """
    assert run(src, mode=mode) == 42


@pytest.mark.parametrize("mode", MODES)
def test_addr_of_array_passes_to_callee(mode):
    src = """
    func fill(buf, n) {
      local i;
      for (i = 0; i < n; i += 1) { buf[i] = i * i; }
      return 0;
    }
    func main() {
      array a[4];
      fill(&a, 4);
      return a[0] + a[1] + a[2] + a[3];
    }
    """
    assert run(src, mode=mode) == 0 + 1 + 4 + 9


# ---------------------------------------------------------------------- #
# Function values and indirect calls.
# ---------------------------------------------------------------------- #
FUNCVAL_SRC = """
func inc(x) { return x + 1; }
func dbl(x) { return x + x; }

func apply(f, v) { return f(v); }

func main(sel) {
  local f;
  f = inc;
  if (sel) { f = dbl; }
  return apply(f, 10) + f(1);
}
"""


@pytest.mark.parametrize("mode", MODES)
def test_function_values_and_indirect_calls(mode):
    assert run(FUNCVAL_SRC, 0, mode=mode) == 11 + 2
    assert run(FUNCVAL_SRC, 1, mode=mode) == 20 + 2


def test_function_addresses_stable_across_rewrites():
    """Instrumentation preserves symbol names, so a function address
    taken before the atom rewrite still resolves after it."""
    img = build(FUNCVAL_SRC)
    instrumented = AtomRewriter().instrument(img)
    for name in img.functions:
        assert (img.function_address(name)
                == instrumented.function_address(name))
    assert img.function_address("inc") >= FUNC_BASE
    assert function_by_address(img, img.function_address("dbl")) == "dbl"


def test_callr_through_bad_address_raises():
    src = """
    func main() {
      local f;
      f = 12345;
      return f(1);
    }
    """
    with pytest.raises(InstrumentationError, match="not a function"):
        run(src)


def test_la_of_undefined_function_is_link_error():
    from repro.instrument.asm import assemble
    obj = assemble("""
.func main section=app frame=0
    la t0, missing
    ret
.endfunc
""")
    with pytest.raises(LinkError, match="missing"):
        link("t", [obj], libraries=[], include_cvm=False)


def test_strict_link_rejects_undefined_calls():
    src = "func main() { return helper(1); }"
    obj = compile_source(src, "t")
    with pytest.raises(LinkError, match="helper"):
        link("t", [obj], libraries=[], include_cvm=False, strict=True)
    # Non-strict keeps the opaque-call contract.
    img = link("t", [obj], libraries=[], include_cvm=False)
    assert Machine(img).run() == 0


# ---------------------------------------------------------------------- #
# Context-sensitive checks (symbol table diagnostics).
# ---------------------------------------------------------------------- #
def test_field_on_untyped_variable_rejected():
    src = """
    struct Pair { a; b; }
    func main() { local p; p = new Pair; return p.a; }
    """
    with pytest.raises(CompileError, match="no declared struct type"):
        compile_source(src, "t")


def test_unknown_field_rejected_with_line():
    src = ("struct Pair { a; b; }\n"
           "func main() {\n"
           "  local p: Pair;\n"
           "  p = new Pair;\n"
           "  return p.c;\n"
           "}\n")
    with pytest.raises(CompileError, match=r"line 5.*no field 'c'"):
        compile_source(src, "t")
