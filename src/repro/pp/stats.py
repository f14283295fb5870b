"""Bridge from pp kernel statistics into the observability layer.

``parallel_for``/``parallel_reduce`` accept a :class:`KernelStats`
accumulator but know nothing about :mod:`repro.obs`.  This module closes
the gap without coupling the layers: :class:`KernelMetrics` is the
per-context pool handing one named accumulator to each kernel, built with
the pool's obs-like handle (anything with ``counter``/``histogram``
methods — :class:`repro.obs.Obs` satisfies this by construction) so each
``record`` also publishes a launch counter and an iteration histogram,
and a ``--trace`` run shows kernel-level activity alongside the spans.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .execspace import KernelStats

__all__ = ["KernelMetrics"]


class KernelMetrics:
    """Named pool of per-kernel :class:`KernelStats` accumulators.

    One instance lives on each ``ComponentContext`` and
    ``ComponentContext.launch`` asks it for the kernel's accumulator, so
    every launch in a coupled run lands in the pool of the model that
    issued it.  With an ``obs`` handle each launch is mirrored as
    ``pp.<kernel>.launches`` (counter), ``pp.<kernel>.iterations``
    (histogram of per-launch iteration counts) and ``pp.<kernel>.seconds``
    (counter of measured wall seconds — the signal
    :mod:`repro.machine.calibrate` fits against).
    """

    def __init__(self, obs: Optional[Any] = None) -> None:
        self.obs = obs
        self._stats: Dict[str, KernelStats] = {}

    def stats(self, kernel: str) -> KernelStats:
        acc = self._stats.get(kernel)
        if acc is None:
            acc = self._stats[kernel] = KernelStats(kernel=kernel, obs=self.obs)
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

