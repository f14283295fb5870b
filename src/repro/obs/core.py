"""The :class:`Obs` facade: one handle bundling tracer + metrics.

Components take ``obs: Obs | None = None``; a live handle records spans
and metrics, ``None`` (or a disabled handle) costs one branch per call
site — the contract that keeps tracing-off overhead negligible on hot
paths like the rearranger.

SPMD programs call :meth:`Obs.fork` once per simulated rank; forks share
the parent's clock and show up as separate ``pid`` lanes in the exported
Chrome trace and as separate rows in cross-rank metric aggregation.
"""

from __future__ import annotations

import copy
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .export import TimingReport, text_report, timing_summary, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Tracer

__all__ = ["Obs", "NULL_OBS"]


class _NoopCtx:
    """Shared do-nothing context manager for disabled observability."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class _NoopMetric:
    """Accepts any metric update and drops it."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP_CTX = _NoopCtx()
_NOOP_METRIC = _NoopMetric()


class Obs:
    """Observability handle for one rank: a tracer plus a metrics registry.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds; defaults to
        :func:`time.perf_counter`.  Pass the machine model's virtual clock
        to trace simulated executions on simulated time.
    enabled:
        When False every call is a no-op (shared null objects, no
        allocation); :data:`NULL_OBS` is the ready-made disabled handle.
    rank:
        The (simulated) MPI rank, stamped on spans and metrics.

    Every handle records under its ``prefix`` (empty on the root handle,
    see :meth:`prefixed`); the root owns the lane table every
    :meth:`fork` registers in, so the root's exports see every lane.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        rank: int = 0,
    ) -> None:
        self.enabled = enabled
        self.rank = rank
        self.prefix = ""
        self._clock = clock if clock is not None else time.perf_counter
        self.tracer = Tracer(clock=self._clock, rank=rank)
        self.metrics = MetricsRegistry(rank=rank)
        self._root = self
        self._lanes: Dict[int, "Obs"] = {}  # the root's: every fork, by rank
        self._forks: Dict[int, "Obs"] = {}  # this handle's, by requested rank
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return _NOOP_CTX
        return self.tracer.span(self._name(name), **attrs)

    def counter(self, name: str) -> Union[Counter, _NoopMetric]:
        return self.metrics.counter(self._name(name)) if self.enabled else _NOOP_METRIC

    def gauge(self, name: str) -> Union[Gauge, _NoopMetric]:
        return self.metrics.gauge(self._name(name)) if self.enabled else _NOOP_METRIC

    def histogram(self, name: str) -> Union[Histogram, _NoopMetric]:
        return self.metrics.histogram(self._name(name)) if self.enabled else _NOOP_METRIC

    # -- namespacing -------------------------------------------------------

    def prefixed(self, prefix: str) -> "Obs":
        """A view of this handle that records every span and metric under
        ``<prefix>.<name>`` (prefixes chain: ``obs.prefixed('member.0')
        .prefixed('cpl')`` records ``member.0.cpl.*``) — how ensemble
        members share one registry without colliding.  The view shares
        this handle's tracer, metrics and lane table.  Disabled handles
        return themselves: the no-op fast path stays a single branch.
        """
        if not self.enabled:
            return self
        view = copy.copy(self)
        view.prefix = self._name(prefix)
        view._forks = {}
        return view

    # -- SPMD --------------------------------------------------------------

    def fork(self, rank: int) -> "Obs":
        """Per-rank child handle (thread-safe; idempotent per handle).

        The child keeps this handle's prefix and owns its tracer.  Two
        handles forking one rank — two ensemble members' ocean domains —
        run on two threads, and a tracer stack is per-thread state, so a
        rank another handle already holds moves to the next free one.
        Every child is registered on the root handle, shares its clock
        and enabled flag, and is included in the root's exports.
        """
        root = self._root
        with root._lock:
            child = self._forks.get(rank)
            if child is None:
                free = rank
                while free in root._lanes:
                    free += 1
                child = Obs(clock=self._clock, enabled=self.enabled, rank=free)
                child.prefix, child._root = self.prefix, root
                root._lanes[free] = self._forks[rank] = child
            return child

    def all_ranks(self) -> List["Obs"]:
        """The root handle plus every fork, ordered by rank."""
        root = self._root
        with root._lock:
            lanes = sorted(root._lanes.values(), key=lambda o: o.rank)
        return [root] + lanes

    # -- export ------------------------------------------------------------

    def _recorded(self) -> List["Obs"]:
        """Handles that actually recorded something (drops an idle root)."""
        handles = [
            o for o in self.all_ranks()
            if o.tracer.spans or o.metrics.names()
        ]
        return handles or [self._root]

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        handles = self._recorded()
        return write_chrome_trace(
            path,
            [o.tracer for o in handles],
            [o.metrics for o in handles],
        )

    def report(self) -> str:
        handles = self._recorded()
        return text_report(
            [o.tracer for o in handles], [o.metrics for o in handles]
        )

    def timing(self, span: str, simulated_days: float) -> TimingReport:
        """Max-across-ranks SYPD summary for ``span`` (getTiming shape)."""
        return timing_summary(
            [o.tracer for o in self._recorded()], span, simulated_days
        )


NULL_OBS = Obs(enabled=False)
"""Shared disabled handle: every span/metric call is a no-op."""
