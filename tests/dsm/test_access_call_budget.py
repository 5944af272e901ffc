"""A timing-free budget for the per-access hot path.

Counts the Python-level calls (``sys.setprofile`` ``call`` events) one
access makes on a warm page in the default configuration: no fault, no
yield, no hook.  Every call frame on this path is paid per shared access
of every application, so a new one is a regression the spine would only
show as noise; the ceilings are the counts of the code as it stands (the
three-engine ``Env`` before it made 22 / 21 / 17 / 16).
"""

import sys

from tests.helpers import run_app

#: load_range: Env.load_range, Protocol.ensure_readable,
#: Interval.record_read, Bitmap.set_range — likewise for the other three.
CEILING = {"load_range": 4, "store_range": 4, "load": 4, "store": 4}


def count_calls(op, *args):
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        op(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_warm_access_stays_within_its_call_budget():
    def app(env):
        x = env.malloc(16, name="x")
        values = [1, 2, 3]
        # Warm: page writable, block cached, bitmaps allocated.
        env.store_range(x, values)
        env.load_range(x, 3)
        return {
            "load_range": count_calls(env.load_range, x + 4, 3),
            "store_range": count_calls(env.store_range, x + 4, values),
            "load": count_calls(env.load, x + 1),
            "store": count_calls(env.store, x + 1, 7),
        }

    calls = run_app(app, nprocs=1).results[0]
    for op, ceiling in CEILING.items():
        assert len(calls[op]) <= ceiling, (op, calls[op])
