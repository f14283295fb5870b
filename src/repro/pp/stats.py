"""Bridge from pp kernel statistics into the observability layer.

``parallel_for``/``parallel_reduce`` accept a :class:`KernelStats`
accumulator but know nothing about :mod:`repro.obs`.  This module closes
the gap without coupling the layers: :class:`ObsKernelStats` is a
drop-in ``KernelStats`` whose ``record`` also publishes a launch counter
and an iteration histogram to any obs-like handle (anything with
``counter``/``gauge``/``histogram`` methods — :class:`repro.obs.Obs`
satisfies this by construction), and :class:`KernelMetrics` is the
per-context pool handing one named accumulator to each kernel so a
``--trace`` run shows kernel-level activity alongside the spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from .execspace import KernelStats

__all__ = ["ObsKernelStats", "KernelMetrics"]


@dataclass
class ObsKernelStats(KernelStats):
    """KernelStats that mirrors each launch into an obs metrics registry.

    Metric names follow ``pp.<kernel>.launches`` (counter),
    ``pp.<kernel>.iterations`` (histogram of per-launch iteration
    counts) and ``pp.<kernel>.seconds`` (counter of measured wall
    seconds — the signal :mod:`repro.machine.calibrate` fits against).
    With ``obs=None`` this is exactly a ``KernelStats``.
    """

    kernel: str = "kernel"
    obs: Optional[Any] = None

    def record(self, n: int, seconds: float = 0.0) -> None:
        super().record(n, seconds)
        if self.obs is not None:
            self.obs.counter(f"pp.{self.kernel}.launches").inc()
            self.obs.histogram(f"pp.{self.kernel}.iterations").observe(float(n))
            if seconds > 0.0:
                self.obs.counter(f"pp.{self.kernel}.seconds").inc(seconds)


class KernelMetrics:
    """Named pool of per-kernel :class:`ObsKernelStats` accumulators.

    One instance lives on the shared ``ComponentContext``; each component
    kernel wrapper asks for its accumulator by name, so every launch in a
    coupled run lands in one registry regardless of which component
    issued it.
    """

    def __init__(self, obs: Optional[Any] = None) -> None:
        self.obs = obs
        self._stats: Dict[str, ObsKernelStats] = {}

    def stats(self, kernel: str) -> ObsKernelStats:
        acc = self._stats.get(kernel)
        if acc is None:
            acc = ObsKernelStats(kernel=kernel, obs=self.obs)
            self._stats[kernel] = acc
        return acc

    def summary(self) -> Dict[str, Dict[str, float]]:
        """{kernel: {launches, iterations, seconds}} for every accumulator."""
        return {
            name: {
                "launches": acc.launches,
                "iterations": acc.iterations,
                "seconds": acc.seconds,
            }
            for name, acc in sorted(self._stats.items())
        }
