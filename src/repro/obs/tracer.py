"""Span-based structured tracer.

The paper instruments every component phase with GPTL timers and reads
them back through ``getTiming``; this module is the structured superset:
each measurement is a :class:`Span` — a named, nestable interval with
attributes — rather than only an accumulated total.  Everything GPTL reports (nested
totals, counts, min/max, SYPD) is a view over ``Span.path`` in
:mod:`repro.obs.export`; the spans additionally carry start/end times,
per-call attributes, and the nesting path Chrome-trace export needs.

The tracer takes an injectable zero-argument clock, so simulated
executions driven by the machine model's virtual clock use the same
accounting path as real runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One finished interval of a trace.

    ``path`` is the full nesting chain (outermost first, this span last);
    ``start`` is seconds on the tracer's clock since its epoch.
    """

    name: str
    start: float
    duration: float
    rank: int
    path: Tuple[str, ...]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    @property
    def parent(self) -> Optional[str]:
        return self.path[-2] if len(self.path) > 1 else None

    @property
    def end(self) -> float:
        return self.start + self.duration


class _SpanCtx:
    """``with tracer.span(...)``: one module-level class, because
    defining it per call cost ten times the span it opened."""

    __slots__ = ("_tracer", "_name", "_attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> None:
        self._tracer.begin(self._name, **self._attrs)

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._name)


class Tracer:
    """Records nestable :class:`Span` s for one rank.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds.  Defaults to
        :func:`time.perf_counter`; simulated runs pass the virtual clock
        of the machine model.
    rank:
        The (simulated) MPI rank this tracer belongs to; stamped on every
        span and used as the Chrome-trace ``pid``.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None, rank: int = 0) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self.rank = rank
        self.epoch = self._clock()
        self.spans: List[Span] = []
        self._stack: List[Tuple[str, float, Dict[str, Any]]] = []

    # -- core API ----------------------------------------------------------

    def begin(self, name: str, **attrs: Any) -> None:
        """Open a span nested under the currently open one."""
        self._stack.append((name, self._clock() - self.epoch, dict(attrs)))

    def end(self, name: Optional[str] = None) -> Span:
        """Close the innermost span (validating ``name`` if given)."""
        if not self._stack:
            raise RuntimeError("no span is open")
        open_name, start, attrs = self._stack[-1]
        if name is not None and name != open_name:
            raise RuntimeError(
                f"span nesting violation: tried to end {name!r}, "
                f"innermost is {open_name!r}"
            )
        self._stack.pop()
        span = Span(
            name=open_name,
            start=start,
            duration=(self._clock() - self.epoch) - start,
            rank=self.rank,
            path=tuple(n for (n, _, _) in self._stack) + (open_name,),
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def span(self, name: str, **attrs: Any):
        """Context-manager form: ``with tracer.span("atm_run", steps=4): ...``."""
        return _SpanCtx(self, name, attrs)

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All finished spans named ``name``, in completion order."""
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Accumulated duration of all spans named ``name``."""
        return sum(s.duration for s in self.find(name))
