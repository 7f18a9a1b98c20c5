"""Span recorder for the traced benchmark run.

Wraps library functions at the module attribute their callers look up
(``fdrelay.mc.draw_realization``, not ``fdrelay.channel.draw_realization``,
because ``mc`` imported the name) and records one span per call: name, start,
end, parent span and run id.  Self time and calls per span name are summed as
spans close, so every span counts however long the run; the first
MAX_KEPT spans are also kept in memory and written out when the run ends.
Only wrap points that exist are recorded in ``wrapped``, so the report can
mark the others absent instead of printing 0 s.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

ROOT = "bench.unit"

# a traced closed-form block makes about 10^5 spans
MAX_KEPT = 1_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.wall_ns = 0
        # kept spans, one entry per column
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        # open spans: [name id, start ns, ns covered by children, kept index]
        self._stack: list[list[int]] = []
        self._restore: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.broken_counters: set[str] = set()
        self.wrapped: set[str] = set()
        self.run_id = -1

    def _sid(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[span]

    def open(self, sid: int) -> list[int]:
        idx = -1
        if len(self.name) < MAX_KEPT:
            idx = len(self.name)
            self.name.append(sid)
            self.parent.append(self._stack[-1][3] if self._stack else -1)
            self.run.append(self.run_id)
            self.start.append(0)
            self.end.append(0)
        frame = [sid, 0, 0, idx]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        if idx >= 0:
            self.start[idx] = frame[1]
        return frame

    def close(self, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        # an exception raised by a signal handler may have left inner spans
        # open; end them too so the stack matches the call nesting again
        while self._stack:
            top = self._stack.pop()
            sid, start, child, idx = top
            dur = end - start
            self.self_ns[sid] += dur - child
            self.calls[sid] += 1
            if idx >= 0:
                self.end[idx] = end
            if self._stack:
                self._stack[-1][2] += dur
            else:
                self.wall_ns += dur
            if top is frame:
                return

    def unit(self, run_id: int):
        """Context manager for one traced unit of work (the root span)."""
        tracer = self

        class _Unit:
            def __enter__(self):
                tracer.run_id = run_id
                self.frame = tracer.open(tracer._sid(ROOT))

            def __exit__(self, *exc):
                tracer.close(self.frame)
                return False

        return _Unit()

    def wrap(self, module, attr: str, span: str, count=None) -> None:
        """Replace module.attr by a recording wrapper.

        count(counters, args, kwargs, result) adds work counts once the call
        returns; a count that fails (the result changed shape in a later
        version of the library) marks its counters broken instead of aborting.
        """
        orig = getattr(module, attr, None)
        if not callable(orig):
            return
        sid = self._sid(span)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open(sid)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(frame)
            if count is not None:
                try:
                    count(tracer.counters, args, kwargs, out)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    tracer.broken_counters.add(span)
            return out

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))
        self.wrapped.add(span)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name over every span.

        A span's self time is its duration minus the durations of its direct
        children; children never overlap in one thread, so that is exactly
        the part of the interval no child covers.
        """
        return ({n: self.self_ns[i] / 1e9 for i, n in enumerate(self.names)},
                {n: self.calls[i] for i, n in enumerate(self.names)})

    def save(self, path) -> None:
        """Write the kept spans (name id, start/end ns, parent, run) as .npz."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32))
