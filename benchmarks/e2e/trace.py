"""Benchmark-side span tracer: wraps public methods, records a call tree.

The program is not edited: :meth:`Tracer.wrap` replaces a bound public
method on a built model instance (or a public function on a class/module
for the init-phase spans) with a timed pass-through.  Spans are kept in
memory as ``[name, start, end, parent, cycle]`` rows and written out as
Chrome-trace JSON when the trial ends.

Self time is a span's duration minus its direct children's durations, so
the self times of a tree add up to the root by construction.  Two
re-entrancy traps are handled by the arithmetic rather than by special
cases:

* ``LicomModel.step(dt)`` re-enters ``step()``: the inner spans are
  children of the outer one, so the outer span's *self* time is only the
  dispatch loop.  An *inclusive* total per name must count outermost
  spans only (:func:`aggregate` does) or the ocean is counted twice.
* the same callable wrapped twice (an ensemble shares one physics suite
  across members) would nest a span inside itself: :meth:`Tracer.wrap`
  refuses to wrap an attribute it already wrapped.

The tracer is single-threaded (one call stack); the benchmark runs every
workload with ``concurrent_domains=False``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "self_times", "aggregate"]

NAME, START, END, PARENT, CYCLE = range(5)

#: ``cycle`` label of spans recorded before the first / after the last cycle.
SETUP = -1


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.cycle: int = SETUP
        self._stack: List[int] = []
        self._wrapped: set = set()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, self.clock(), None, parent, self.cycle])
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("tracer spans closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, owner: object, attr: str, name: str,
             on_call: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a pass-through recording a ``name``
        span per call.  ``on_call(*args, **kwargs)`` sees each call's
        arguments (used for the batch-size counts)."""
        key = (id(owner), attr)
        if key in self._wrapped:
            return
        self._wrapped.add(key)
        fn = getattr(owner, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        setattr(owner, attr, traced)

    def write_chrome_trace(self, path) -> Path:
        """Spans as Chrome-trace complete events (chrome://tracing, Perfetto)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": s[NAME], "ph": "X", "pid": 0, "tid": 0,
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "args": {"id": i, "parent": s[PARENT], "cycle": s[CYCLE]},
            }
            for i, s in enumerate(self.spans)
        ]
        path = Path(path)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus the direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def aggregate(spans: List[list]) -> Dict[int, Dict[str, Dict[str, float]]]:
    """``{cycle: {name: {incl, self, calls, inner}}}`` in seconds / counts.

    ``incl`` sums outermost spans only (a span with a same-name ancestor
    is already inside one that was counted); ``inner`` counts the nested
    ones; ``self`` sums every span's self time, which never double-counts.
    """
    selfs = self_times(spans)
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s[CYCLE], {}).setdefault(
            s[NAME], {"incl": 0.0, "self": 0.0, "calls": 0, "inner": 0}
        )
        row["self"] += selfs[i]
        row["calls"] += 1
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p >= 0:
            row["inner"] += 1
        else:
            row["incl"] += s[END] - s[START]
    return out
