"""A timing-free budget for the per-access hot path.

Counts the Python-level calls (``sys.setprofile`` ``call`` events) one
access makes on a warm page in the default configuration: valid copy
(writable for a store), bitmap already in the open interval, no yield,
no hook.  Such an access is decided in the ``Env`` frame and pays for one
further call, the bitmap's; ``Protocol.ensure_*`` are entered only on a
fault or protection transition and ``Interval.record_*`` only on an
interval's first touch of a page.  Every call frame on this path is paid
per shared access of every application, so a new one is a regression the
spine would only show as noise; the ceilings are the counts of the code
as it stands (4 each before the warm path; 22 / 21 / 17 / 16 in the
three-engine ``Env`` before that).
"""

import sys

from tests.helpers import run_app

#: load_range: Env.load_range, Bitmap.set_range — store_range likewise;
#: load: Env.load, Bitmap.set — store likewise.
CEILING = {"load_range": 2, "store_range": 2, "load": 2, "store": 2}


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


def warm_access_calls(env):
    """The calls each of the four operations makes on a warm page."""
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


def test_warm_access_stays_within_its_call_budget():
    calls = run_app(warm_access_calls, nprocs=1).results[0]
    for op, ceiling in CEILING.items():
        assert len(calls[op]) <= ceiling, (op, calls[op])
        assert calls[op][0] == op and calls[op][-1] in ("set", "set_range")
