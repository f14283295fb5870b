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

import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .export import TimingReport, text_report, timing_summary, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Tracer

__all__ = ["Obs", "PrefixedObs", "NULL_OBS"]


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
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        rank: int = 0,
    ) -> None:
        self.enabled = enabled
        self.rank = rank
        self._clock = clock if clock is not None else time.perf_counter
        self.tracer = Tracer(clock=self._clock, rank=rank)
        self.metrics = MetricsRegistry(rank=rank)
        self._children: Dict[int, "Obs"] = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return _NOOP_CTX
        return self.tracer.span(name, **attrs)

    def counter(self, name: str) -> Union[Counter, _NoopMetric]:
        return self.metrics.counter(name) if self.enabled else _NOOP_METRIC

    def gauge(self, name: str) -> Union[Gauge, _NoopMetric]:
        return self.metrics.gauge(name) if self.enabled else _NOOP_METRIC

    def histogram(self, name: str) -> Union[Histogram, _NoopMetric]:
        return self.metrics.histogram(name) if self.enabled else _NOOP_METRIC

    # -- namespacing -------------------------------------------------------

    def prefixed(self, prefix: str) -> "Obs":
        """A view of this handle that prepends ``prefix + '.'`` to every
        span and metric name — how ensemble members share one parent
        registry without colliding (``member.<k>.*``).  Disabled handles
        return themselves: the no-op fast path stays a single branch.
        """
        if not self.enabled:
            return self
        return PrefixedObs(self, prefix)

    # -- SPMD --------------------------------------------------------------

    def fork(self, rank: int) -> "Obs":
        """Per-rank child handle (thread-safe; idempotent per rank).

        Children share the parent's clock and enabled flag and are
        included in the parent's exports.
        """
        with self._lock:
            child = self._children.get(rank)
            if child is None:
                child = Obs(clock=self._clock, enabled=self.enabled, rank=rank)
                self._children[rank] = child
            return child

    def all_ranks(self) -> List["Obs"]:
        """This handle plus every fork, ordered by rank."""
        with self._lock:
            children = sorted(self._children.values(), key=lambda o: o.rank)
        return [self] + children

    # -- export ------------------------------------------------------------

    def _recorded(self) -> List["Obs"]:
        """Handles that actually recorded something (drops an idle parent)."""
        handles = [
            o for o in self.all_ranks()
            if o.tracer.spans or o.metrics.names()
        ]
        return handles or [self]

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


class PrefixedObs:
    """Name-prefixing view over a base :class:`Obs` handle.

    Records through the *base* tracer/metrics (so exports aggregate all
    members in one place) but under ``<prefix>.<name>``.  Everything not
    name-shaped — exports, ``tracer``/``metrics`` attributes — delegates
    to the base handle unchanged.
    """

    def __init__(self, base: Obs, prefix: str) -> None:
        self._base = base
        self.prefix = prefix
        self._forks: Dict[int, "PrefixedObs"] = {}

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    @property
    def rank(self) -> int:
        return self._base.rank

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def span(self, name: str, **attrs: Any):
        return self._base.span(self._name(name), **attrs)

    def counter(self, name: str):
        return self._base.counter(self._name(name))

    def gauge(self, name: str):
        return self._base.gauge(self._name(name))

    def histogram(self, name: str):
        return self._base.histogram(self._name(name))

    def prefixed(self, prefix: str) -> "Obs | PrefixedObs":
        """Chain prefixes: ``obs.prefixed('member.0').prefixed('cpl')``
        records under ``member.0.cpl.*``."""
        if not self._base.enabled:
            return self._base
        return PrefixedObs(self._base, self._name(prefix))

    def fork(self, rank: int) -> "PrefixedObs":
        """Per-rank child of *this view* (idempotent per rank): keeps the
        prefix and owns its tracer.  Two views forking one rank — two
        ensemble members' ocean domains — run on two threads, and a
        tracer stack is per-thread state, so a rank another view already
        holds moves to the next free one.
        """
        child = self._forks.get(rank)
        if child is None:
            base, free = self._base, rank
            with base._lock:
                while free in base._children:
                    free += 1
                lane = Obs(clock=base._clock, enabled=base.enabled, rank=free)
                base._children[free] = lane
            child = self._forks[rank] = PrefixedObs(lane, self.prefix)
        return child

    def __getattr__(self, attr: str):
        return getattr(self._base, attr)


NULL_OBS = Obs(enabled=False)
"""Shared disabled handle: every span/metric call is a no-op."""
