"""AST for the miniature kernel language.

Application inner loops are written in this little C-like language and
compiled to the mini ISA, so that the instruction streams the ATOM-analogue
classifies are *derived from real programs* rather than invented counts.
The language distinguishes exactly the storage classes the paper's static
filter distinguishes:

* ``Local`` / ``LocalArr`` — stack storage (frame-pointer addressing);
* ``Static`` — statically allocated globals (global-pointer addressing);
* ``Deref`` — indirection through a pointer (dynamically allocated,
  potentially shared: these survive the filter and get instrumented);
* ``LocalArr`` with a non-constant index — stack data the compiler can no
  longer prove stack-resident once the address leaves the frame-pointer
  addressing mode; like the paper's basic-block-limited analysis, these
  are conservatively instrumented and account for the "false"
  instrumentations that dominate runtime analysis calls (§5.1, §6.5).
* ``Field`` — access through a struct pointer (``p.next``): the offset is
  resolved at parse time against the struct table, the access itself is
  dynamic and therefore instrumented;
* ``New`` / ``Delete`` — dynamic shared-heap allocation, lowered to the
  per-pid bump/free-list allocator (``__heap_alloc`` / ``__heap_free``);
* ``AddrOf`` — the address of a declared variable; taking an address
  forces the variable to stay memory-homed under every register
  allocator, and accesses through the escaped pointer are conservatively
  instrumented;
* ``FuncRef`` / ``CallIndirect`` — first-class function values: a
  function-address constant (``Op.LA``) and a call through a register
  (``Op.CALLR``).

Every node carries an optional ``line`` (source line, 0 when built
programmatically); it is excluded from equality.  Programs are written as
source text and parsed (:mod:`repro.instrument.parser`); only tests build
ASTs by hand, and such an AST compares equal to the one parsed from the
same text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


class Expr:
    """Base class for expressions."""


@dataclass
class Const(Expr):
    value: int


@dataclass
class Local(Expr):
    """A scalar local variable (stack slot)."""

    name: str


@dataclass
class Param(Expr):
    """A function parameter (spilled to the frame at entry)."""

    name: str


@dataclass
class Static(Expr):
    """A statically-allocated global scalar."""

    name: str


@dataclass
class LocalArr(Expr):
    """Element of a stack-allocated array."""

    name: str
    index: Expr


@dataclass
class Deref(Expr):
    """``ptr[index]`` through a pointer value (dynamic, possibly shared)."""

    ptr: Expr
    index: Expr


@dataclass
class Bin(Expr):
    """Binary arithmetic/comparison: op in {+,-,*,/,&,|,^,<,==}."""

    op: str
    left: Expr
    right: Expr


@dataclass
class CallExpr(Expr):
    """Call a function and use its return value."""

    name: str
    args: Sequence[Expr] = ()


@dataclass
class Field(Expr):
    """``obj.field`` through a struct pointer.

    The parser resolves ``offset`` against the struct table at parse
    time, so the compiler lowers this without any type knowledge: the
    effective address is ``value(obj) + offset``.
    """

    obj: Expr
    name: str
    offset: int = 0
    line: int = field(default=0, compare=False)


@dataclass
class AddrOf(Expr):
    """``&name`` — the address of a declared variable or array."""

    name: str
    line: int = field(default=0, compare=False)


@dataclass
class New(Expr):
    """``new Type`` or ``new [count]`` — shared-heap allocation.

    ``size`` is the word count (the struct's field count, resolved by
    the parser, or the bracketed expression); ``struct`` names the type
    for diagnostics when the allocation is typed.
    """

    size: Expr = None  # type: ignore[assignment]
    struct: Optional[str] = None
    line: int = field(default=0, compare=False)


@dataclass
class FuncRef(Expr):
    """A function used as a value (its address)."""

    name: str
    line: int = field(default=0, compare=False)


@dataclass
class CallIndirect(Expr):
    """Call through a function value: ``fnptr(args)``."""

    func: Expr = None  # type: ignore[assignment]
    args: Sequence[Expr] = ()
    line: int = field(default=0, compare=False)


class Stmt:
    """Base class for statements."""


@dataclass
class Assign(Stmt):
    """``target = value`` where target is Local/Static/LocalArr/Deref/
    Field."""

    target: Expr
    value: Expr
    line: int = field(default=0, compare=False)


@dataclass
class For(Stmt):
    """``for (var = start; var < end; var += step) body``."""

    var: Local
    start: Expr
    end: Expr
    body: List[Stmt]
    step: int = 1
    line: int = field(default=0, compare=False)


@dataclass
class While(Stmt):
    cond: Expr
    body: List[Stmt]
    line: int = field(default=0, compare=False)


@dataclass
class If(Stmt):
    cond: Expr
    then: List[Stmt]
    orelse: List[Stmt] = field(default_factory=list)
    line: int = field(default=0, compare=False)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    line: int = field(default=0, compare=False)


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    line: int = field(default=0, compare=False)


@dataclass
class Delete(Stmt):
    """``delete expr;`` — return a heap block to the free list."""

    target: Expr
    line: int = field(default=0, compare=False)


@dataclass
class StructDef:
    """A struct declaration: ordered one-word fields, with optional
    struct-typed fields (``next: Node``) so chained field access
    (``p.next.val``) type-checks."""

    name: str
    fields: Sequence[str] = ()
    #: field name -> struct type name, for struct-typed fields only.
    field_types: "dict" = field(default_factory=dict)
    line: int = field(default=0, compare=False)

    @property
    def size(self) -> int:
        return len(self.fields)

    def offset_of(self, fname: str) -> Optional[int]:
        for i, f in enumerate(self.fields):
            if f == fname:
                return i
        return None


@dataclass
class KernelFunction:
    """One function: parameters, local declarations, body."""

    name: str
    params: Sequence[str] = ()
    locals_: Sequence[str] = ()
    #: (name, size) stack arrays.
    arrays: Sequence[Tuple[str, int]] = ()
    body: List[Stmt] = field(default_factory=list)
    #: variable name -> struct type name, for pointer-typed declarations.
    var_types: "dict" = field(default_factory=dict, compare=False)
    line: int = field(default=0, compare=False)


@dataclass
class KernelProgram:
    """A compilation unit: static globals plus functions."""

    name: str
    statics: Sequence[str] = ()
    functions: List[KernelFunction] = field(default_factory=list)
    structs: Sequence[StructDef] = field(default=(), compare=False)
