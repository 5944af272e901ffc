"""Span tracer of the spine benchmark, installed entirely from outside
``src/`` by wrapping bound methods on one ``CVM`` instance before
``run()``.

A span is ``[name, start_ns, end_ns, parent]`` on a per-thread list (one
*track* per simulated process per cell, plus one for the main thread);
``name`` is ``"<layer>:<operation>"``.  Spans stay in memory and are only
summarized or written out after the run.

Self time of a span is its duration minus its child spans.  The spans
around ``Scheduler.yield_control`` / ``block`` / ``run`` are *park*
spans: the thread is not working there, so their duration is subtracted
from the enclosing spans like any child but credited to no layer.
Instead ``handoff_s`` sums, over the global event order, the gaps between
one thread going out (entering a park span, or ending) and the next
coming in (leaving a park span, or starting).  Because the simulator
passes one token, outs and ins alternate, and layer self times plus
``handoff_s`` tile the traced wall clock (``coverage`` ~ 1).
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

ENV_ACCESS_OPS = ("load", "store", "load_range", "store_range")
PROTOCOL_OPS = ("ensure_readable", "ensure_writable", "apply_write_notice",
                "on_interval_closed")
#: Wrapped on the CVM, not on each Env: ``Env.lock`` and friends forward
#: here, and the final barrier that checks the last epoch is issued by the
#: CVM itself after the application function has returned.
SYNC_OPS = ("lock_acquire", "lock_release", "barrier", "event_set",
            "event_wait")
PARK_SPANS = frozenset({"sim.scheduler:yield_control", "sim.scheduler:block",
                        "sim.scheduler:run"})
DETECTOR_SPANS = ("core.detector:run_epoch", "core.detector:plan_shards",
                  "core.detector:compute_shard",
                  "core.detector:commit_sharded")
MAIN_PID = -1


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


@dataclass
class Track:
    pid: int
    cell: str
    spans: List[list] = field(default_factory=list)


@dataclass
class CapturedCell:
    """The interval batches one cell handed to its detector, kept for the
    offline replay through the public pair-search functions."""

    config: Any
    epochs: List[Tuple[int, list]] = field(default_factory=list)


@dataclass
class Summary:
    self_s: Dict[str, float]
    inclusive_s: Dict[str, float]
    calls: Dict[str, int]
    handoff_s: float
    #: Out/in events that did not alternate (0 on a healthy trace).
    handoff_anomalies: int
    wall_s: float
    cell_wall_s: Dict[str, float]

    @property
    def coverage(self) -> float:
        return (sum(self.self_s.values()) + self.handoff_s) / self.wall_s


class Tracer:
    def __init__(self) -> None:
        self.tracks: List[Track] = []
        self.captured: List[CapturedCell] = []
        self.live_records_hwm = 0
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def _begin_track(self, pid: int, cell: str) -> None:
        track = Track(pid, cell)
        self.tracks.append(track)
        self._local.spans = track.spans
        self._local.stack = []

    def _span(self, fn: Callable, name: str) -> Callable:
        local = self._local
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = local.spans
            stack = local.stack
            rec = [name, now(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
        return traced

    def _wrap_methods(self, obj: Any, ops, layer: str) -> None:
        for op in ops:
            setattr(obj, op, self._span(getattr(obj, op), f"{layer}:{op}"))

    @contextlib.contextmanager
    def cell(self, label: str):
        """Main-thread root span of one cell: CVM construction, spawn and
        result collection are its self time (layer ``dsm.cvm``)."""
        self._begin_track(MAIN_PID, label)
        rec = ["dsm.cvm:cell", time.perf_counter_ns(), 0, -1]
        self._local.spans.append(rec)
        self._local.stack.append(0)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._local.stack.pop()

    def wrap_app(self, func: Callable, layer: str, cell: str) -> Callable:
        """The function to hand to ``CVM.run``: opens the pid's track and
        its root span, and wraps that Env's access methods."""
        body = self._span(func, f"{layer}:{func.__name__}")

        @functools.wraps(func)
        def root(env, *args):
            self._begin_track(env.pid, cell)
            self._wrap_methods(env, ENV_ACCESS_OPS, "dsm.env")
            return body(env, *args)
        return root

    def install(self, system: Any) -> None:
        """Wrap the layer boundaries of ``system`` (a fresh ``CVM``).
        ``Env`` binds the protocol methods at ``Env.__init__``, which runs
        after this, so the wrapped ones are what it binds."""
        self._wrap_methods(system.protocol, PROTOCOL_OPS, "dsm.protocol")
        self._wrap_methods(system, SYNC_OPS, "dsm.sync")
        self._wrap_methods(system.transport, ("send", "deliver"),
                           "net.transport")
        if system.net is not system.transport:
            self._wrap_methods(system.net, ("send", "deliver"),
                               "net.reliable")
        if system.checkpoints is not None:
            self._wrap_methods(system.checkpoints, ("take",),
                               "dsm.checkpoint")
        self._wrap_methods(system.scheduler,
                           ("yield_control", "block", "run"),
                           "sim.scheduler")
        detector = system.detector
        if detector is not None:
            captured = CapturedCell(system.config)
            self.captured.append(captured)
            self._install_detector(detector, captured)
        store = system.store
        discard = store.discard_epoch

        def sampling_discard(epoch):
            self.live_records_hwm = max(self.live_records_hwm,
                                        store.live_records())
            return discard(epoch)
        store.discard_epoch = sampling_discard

    def _install_detector(self, detector: Any,
                          captured: CapturedCell) -> None:
        run_epoch = detector.run_epoch
        plan_shards = detector.plan_shards

        def capturing_run_epoch(intervals, epoch, master_clock):
            captured.epochs.append((epoch, list(intervals)))
            return run_epoch(intervals, epoch, master_clock)

        def capturing_plan_shards(intervals, owners):
            plan = plan_shards(intervals, owners)
            if plan is not None:  # None falls back to run_epoch, above
                captured.epochs.append((len(captured.epochs),
                                        list(intervals)))
            return plan

        detector.run_epoch = self._span(capturing_run_epoch,
                                        "core.detector:run_epoch")
        detector.plan_shards = self._span(capturing_plan_shards,
                                          "core.detector:plan_shards")
        self._wrap_methods(detector, ("compute_shard", "commit_sharded"),
                           "core.detector")

    # ------------------------------------------------------------------ #
    # Analysis.
    # ------------------------------------------------------------------ #
    def summarize(self) -> Summary:
        self_ns: Dict[str, int] = defaultdict(int)
        inclusive_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        cell_wall_ns: Dict[str, int] = defaultdict(int)
        events: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
        for track in self.tracks:
            spans = [sp for sp in track.spans if sp[2]]
            if not spans:
                continue
            children = [0] * len(track.spans)
            last_top_end = 0
            for name, start, end, parent in spans:
                if parent >= 0:
                    children[parent] += end - start
                else:
                    last_top_end = max(last_top_end, end)
            cell_events = events[track.cell]
            for i, (name, start, end, _parent) in enumerate(track.spans):
                if not end:
                    continue
                calls[name] += 1
                inclusive_ns[name] += end - start
                if name in PARK_SPANS:
                    cell_events.append((start, 0))
                    cell_events.append((end, 1))
                else:
                    self_ns[layer_of(name)] += end - start - children[i]
            if track.pid == MAIN_PID:
                cell_wall_ns[track.cell] += spans[0][2] - spans[0][1]
            else:
                cell_events.append((spans[0][1], 1))
                cell_events.append((last_top_end, 0))
        handoff_ns = anomalies = 0
        for cell_events in events.values():
            cell_events.sort()
            out_at = None
            for t, coming_in in cell_events:
                if coming_in:
                    if out_at is None:
                        anomalies += 1
                    else:
                        handoff_ns += t - out_at
                    out_at = None
                else:
                    if out_at is not None:
                        anomalies += 1
                    out_at = t
        return Summary(
            self_s={k: v / 1e9 for k, v in self_ns.items()},
            inclusive_s={k: v / 1e9 for k, v in inclusive_ns.items()},
            calls=dict(calls),
            handoff_s=handoff_ns / 1e9,
            handoff_anomalies=anomalies,
            wall_s=sum(cell_wall_ns.values()) / 1e9,
            cell_wall_s={k: v / 1e9 for k, v in cell_wall_ns.items()})

    def write(self, path: str) -> None:
        """Spans as ``[name, start_ns, end_ns, parent, pid, cell]`` rows;
        ``parent`` indexes the same list (-1 for a root)."""
        rows = []
        for track in self.tracks:
            base = len(rows)
            for name, start, end, parent in track.spans:
                rows.append([name, start, end,
                             base + parent if parent >= 0 else -1,
                             track.pid, track.cell])
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent",
                                   "pid", "cell"], "spans": rows}, f)
            f.write("\n")
