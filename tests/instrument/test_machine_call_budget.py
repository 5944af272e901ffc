"""A timing-free budget for the mini-ISA execution path.

Counts the Python-level calls (``sys.setprofile`` ``call`` events) the
machine makes per executed instruction over the 24 generated kernels of
``test_batch_soundness``, ATOM-instrumented.  The step interpreter paid
1.835 calls per step (a ``get`` lambda per operand read on top of the
memory seam and the analysis hook); lowered blocks pay one call per
*basic block* plus the seam, the hook and the call path.  The ceiling is
the count of the code as it stands, so a call frame creeping back into
the per-instruction path fails here, where the spine would show noise —
the guard ``tests/dsm/test_access_call_budget.py`` is for ``Env``.
"""

from repro.instrument.atom import AtomRewriter
from repro.instrument.linker import link
from repro.instrument.lower import lower_image
from repro.instrument.machine import Machine
from repro.instrument.parser import compile_source
from tests.dsm.test_access_call_budget import count_calls
from tests.instrument.test_batch_soundness import generate

#: Measured 0.668 (4,173 calls / 6,250 steps).
CEILING = 0.68


def test_calls_per_step_stay_within_budget():
    calls, steps = [], 0
    for seed in range(24):
        image = AtomRewriter().instrument(link(
            "fuzz", [compile_source(generate(seed), "fuzz")], libraries=[],
            include_cvm=False))
        lower_image(image)      # decode is paid once, not per step
        machine = Machine(image)
        calls += count_calls(machine.run)
        steps += machine.steps
    assert steps == 6250        # the corpus the ceiling was measured on
    ratio = len(calls) / steps
    by_name = {name: calls.count(name) for name in sorted(set(calls))}
    assert ratio <= CEILING, (ratio, by_name)
