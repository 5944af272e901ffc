"""The lowered machine against the step interpreter it replaced.

``repro.instrument.lower`` decodes each function once into basic-block
code; ``reference_machine.ReferenceMachine`` is the per-instruction loop
kept as the spec.  Everything observable must agree: return value,
private memory, the analysis event stream, ``analysis_calls``, the final
``steps``, and — for the error paths — exception type and message.
"""

import pytest

from repro.errors import InstrumentationError
from repro.instrument.atom import ANALYSIS_SYMBOL, AtomRewriter
from repro.instrument.batch import coalesce_analysis_calls
from repro.instrument.binaries import APP_NAMES, binary_for
from repro.instrument.isa import (BinaryImage, Function, Instruction, Op,
                                  Section)
from repro.instrument.linker import link
from repro.instrument.machine import AnalysisCounter, Machine
from repro.instrument.parser import compile_source
from tests.instrument.reference_machine import ReferenceMachine
from tests.instrument.test_batch_soundness import generate

KERNEL_ARGS = {"fft": (16,), "sor": (6, 6), "tsp": (5,), "water": (4, 1),
               "lu": (5,)}


class Observation:
    def __init__(self, machine_cls, image, args, hook, setup, **kwargs):
        self.hook = hook if hook is not None else AnalysisCounter()
        self.machine = machine_cls(image, analysis_hook=self.hook, **kwargs)
        if setup is not None:
            setup(self.machine)
        try:
            self.outcome = ("returned", self.machine.run(*args))
        except InstrumentationError as exc:
            self.outcome = (type(exc), str(exc))

    def state(self):
        m = self.machine
        return (self.outcome, m.memory, self.hook.events, m.analysis_calls,
                m.heap_next, m.sp)


def both(image, args=(), hook=None, setup=None, **kwargs):
    """Run ``image`` on both machines (fresh hooks from ``hook()``)."""
    ref = Observation(ReferenceMachine, image, args, hook and hook(), setup,
                      **kwargs)
    low = Observation(Machine, image, args, hook and hook(), setup, **kwargs)
    assert low.state() == ref.state()
    if ref.outcome[0] == "returned":
        assert low.machine.steps == ref.machine.steps
    return ref, low


def image_of(*functions, entry="main"):
    image = BinaryImage("t")
    for fn in functions:
        image.add(fn)
    image.entry = entry
    return image


def app(name, *code):
    return Function(name, list(code), Section.APP)


I = Instruction  # noqa: E741


# ---------------------------------------------------------------------- #
# Generated and compiled programs.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(24))
def test_fuzzed_kernels(seed):
    obj = compile_source(generate(seed), "fuzz")
    plain = link("fuzz", [obj], libraries=[], include_cvm=False)
    instrumented = AtomRewriter().instrument(plain)
    batched, _report = coalesce_analysis_calls(instrumented)
    for image in (plain, instrumented, batched):
        ref, _low = both(image)
        assert ref.outcome[0] == "returned"
    assert ref.machine.analysis_calls > 0


@pytest.mark.parametrize("regalloc", ["naive", "linear"])
@pytest.mark.parametrize("app_name", list(APP_NAMES) + ["lu"])
def test_application_kernels(app_name, regalloc):
    image = AtomRewriter().instrument(binary_for(app_name, regalloc=regalloc))
    ref, _low = both(image, KERNEL_ARGS[app_name], max_steps=2_000_000)
    assert ref.outcome[0] == "returned"
    assert ref.machine.analysis_calls > 0


# ---------------------------------------------------------------------- #
# Hand-built images: the paths compiled code does not reach.
# ---------------------------------------------------------------------- #
def test_callr_through_a_bad_address():
    ref, _low = both(image_of(app(
        "main",
        I(Op.LI, reg="t0", imm=12345),
        I(Op.ST, reg="t0", base="fp", offset=0),
        I(Op.CALLR, srcs=("t0",)),
        I(Op.RET))))
    assert ref.outcome == (InstrumentationError,
                           "callr through 12345: not a function address")


def test_callr_and_la_of_a_defined_function():
    ref, _low = both(image_of(
        app("seven", I(Op.LI, reg="v0", imm=7), I(Op.RET)),
        app("main",
            I(Op.LA, reg="t0", target="seven"),
            I(Op.CALLR, srcs=("t0",)),
            I(Op.ADD, reg="v0", srcs=("v0", "t0")),
            I(Op.RET))))
    assert ref.outcome[0] == "returned"


def test_la_of_an_undefined_symbol_fails_when_executed():
    image = image_of(app(
        "main",
        I(Op.BNEZ, srcs=("a0",), target="skip"),
        I(Op.LA, reg="t0", target="ghost"),
        I(Op.LABEL, target="skip"),
        I(Op.RET)))
    ref, _low = both(image, (0,))
    assert ref.outcome == (InstrumentationError,
                           "la of undefined function 'ghost'")
    ref, _low = both(image, (1,))
    assert ref.outcome == ("returned", 0)


@pytest.mark.parametrize("num, denom", [
    (7, 0), (7, 2), (-7, 2), (7, -2), (-7, -2), (-6, 2), (0, 5),
    (2**60 + 1, 3), (-(2**60) - 1, 3), (2**60 + 1, -3), (2**64, 2**31 - 1)])
def test_division_truncates_toward_zero_exactly(num, denom):
    ref, _low = both(image_of(app(
        "main", I(Op.DIV, reg="v0", srcs=("a0", "a1")), I(Op.RET))),
        (num, denom))
    assert ref.outcome[0] == "returned"


class Unranged:
    """A hook without ``range_access``: ranged calls expand per word."""

    def __init__(self):
        self.events = []

    def __call__(self, addr, is_store, origin):
        self.events.append((addr, is_store, origin))


class Ranged(Unranged):
    def range_access(self, addr, count, is_store, origin):
        self.events.append(("range", addr, count, is_store, origin))


@pytest.mark.parametrize("hook", [None, Unranged, Ranged])
def test_ranged_and_scalar_analysis_calls(hook):
    def call(*srcs, **kw):
        return I(Op.CALL, target=ANALYSIS_SYMBOL, srcs=srcs, **kw)

    ref, _low = both(image_of(app(
        "main",
        call("a0", "st", offset=2, imm=3, origin="ranged-store"),
        call("a0", "ld", offset=-1, imm=4, origin="ranged-load"),
        call("a0", "st", origin="scalar-store"),
        call("a0", "ld", offset=5, imm=1, origin="explicit-one"),
        call("a0", "ld", imm=0, origin="empty-run"),
        call("", "ld", offset=9, origin="no-base"),
        call(offset=4, origin="no-operands"),
        I(Op.RET))), (1000,), hook=hook)
    assert ref.machine.analysis_calls == 7
    assert ref.hook.events


def _calls_magic():
    return image_of(app("main", I(Op.LI, reg="a0", imm=20),
                        I(Op.CALL, target="magic"), I(Op.RET)))


def test_intrinsic_registered_after_construction():
    ref, _low = both(
        _calls_magic(),
        setup=lambda m: m.intrinsic("magic", lambda a0, *_: a0 + 22))
    assert ref.outcome == ("returned", 42)


def test_unregistered_library_call_returns_zero():
    ref, _low = both(_calls_magic())
    assert ref.outcome == ("returned", 0)


def test_app_function_shadows_an_intrinsic_of_its_name():
    image = image_of(
        app("malloc", I(Op.LI, reg="v0", imm=-5), I(Op.RET)),
        app("main", I(Op.LI, reg="a0", imm=4),
            I(Op.CALL, target="malloc"), I(Op.RET)))
    ref, low = both(image)
    assert ref.outcome == ("returned", -5)
    assert low.machine.heap_next == Machine(image).heap_next  # untouched


def test_library_section_bodies_are_never_executed():
    image = image_of(
        Function("strlen", [I(Op.LI, reg="v0", imm=99), I(Op.RET)],
                 Section.LIBC),
        app("main", I(Op.CALL, target="strlen"), I(Op.RET)))
    ref, _low = both(image)
    assert ref.outcome == ("returned", 0)


def test_heap_exhaustion_and_bad_delete():
    grab = image_of(app("main", I(Op.LI, reg="a0", imm=9),
                        I(Op.CALL, target="__heap_alloc"), I(Op.RET)))
    ref, _low = both(grab, heap_words=8)
    assert ref.outcome == (InstrumentationError, "machine heap exhausted")
    free = image_of(app("main", I(Op.LI, reg="a0", imm=77),
                        I(Op.CALL, target="__heap_free"), I(Op.RET)))
    ref, _low = both(free)
    assert ref.outcome == (InstrumentationError,
                           "__heap_free of unallocated address 77")


def test_unset_registers_read_zero_and_odd_names_are_registers():
    ref, _low = both(image_of(app(
        "main",
        I(Op.ADD, reg="v0", srcs=("t9", "zero")),
        I(Op.LI, reg="%weird", imm=3),
        I(Op.ADD, reg="v0", srcs=("v0", "%weird")),
        I(Op.NOP),
        I(Op.RET))))
    assert ref.outcome == ("returned", 3)


def test_falling_off_the_end_and_the_empty_function():
    ref, _low = both(image_of(
        app("empty"),
        app("main", I(Op.LI, reg="v0", imm=8), I(Op.CALL, target="empty"),
            I(Op.J, target="end"), I(Op.LI, reg="v0", imm=1),
            I(Op.LABEL, target="end"))))
    assert ref.outcome == ("returned", 0)
    assert ref.machine.steps == 3    # li, call, j; the label is jumped over


def test_labels_count_as_steps_only_when_fallen_into():
    def image(taken):
        return image_of(app(
            "main",
            I(Op.LI, reg="t0", imm=taken),
            I(Op.BNEZ, srcs=("t0",), target="a"),
            I(Op.LABEL, target="a"),
            I(Op.LABEL, target="b"),
            I(Op.BEQZ, srcs=("t0",), target="b"),
            I(Op.RET)))
    ref, _low = both(image(1))
    assert ref.machine.steps == 5    # label a skipped by the taken branch
    ref, _low = both(image(0), max_steps=40)
    assert ref.outcome == (InstrumentationError, "machine exceeded 40 steps")


# ---------------------------------------------------------------------- #
# The step limit.
# ---------------------------------------------------------------------- #
def _counting_loop():
    """``while (1) { mem[fp] += 1 }`` — four instructions per round."""
    return image_of(app(
        "main",
        I(Op.LI, reg="t1", imm=1),
        I(Op.LABEL, target="head"),
        I(Op.LD, reg="t0", base="fp", offset=0),
        I(Op.ADD, reg="t0", srcs=("t0", "t1")),
        I(Op.ST, reg="t0", base="fp", offset=0),
        I(Op.J, target="head")))


@pytest.mark.parametrize("max_steps", [1, 2, 5, 6, 7, 8, 9, 10, 203])
def test_step_limit_mid_loop(max_steps):
    """Same error, and the block-entry test never lets instruction
    ``max_steps + 1`` run: the lowered machine may stop a block early,
    never late."""
    image = _counting_loop()
    ref = Observation(ReferenceMachine, image, (), None, None,
                      max_steps=max_steps)
    low = Observation(Machine, image, (), None, None, max_steps=max_steps)
    assert low.outcome == ref.outcome == (
        InstrumentationError, f"machine exceeded {max_steps} steps")
    assert low.machine.steps <= max_steps
    rounds = lambda o: sum(o.machine.memory.values())  # noqa: E731
    assert rounds(ref) - 1 <= rounds(low) <= rounds(ref)
    # A limit the program fits in is no limit: exact steps, same result.
    done = image_of(app("main", I(Op.LI, reg="v0", imm=1), I(Op.RET)))
    assert Machine(done, max_steps=2).run() == 1
    with pytest.raises(InstrumentationError, match="exceeded 1 steps"):
        Machine(done, max_steps=1).run()
