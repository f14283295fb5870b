"""Execution spaces: how a parallel launch is cut, and where it runs.

The paper's portability claim is that the *same* kernels execute on a
Sunway CG (1 MPE + 64 CPEs), on an ORISE GPU, or serially on a host CPU.
We reproduce that contract: an :class:`ExecutionSpace` turns an iteration
range into a set of **chunks** (what a CPE, a GPU thread block, or the
single serial lane would own) and executes a vectorized functor over each
chunk.  Because the chunks partition the index space and the functor is
applied to disjoint slices, every cut produces bit-identical results —
the property tested by ``tests/test_pp_kernels.py`` and claimed in §5.3.

A space is an **executor** and nothing else: a name, a lane count and
one overridable hook, :meth:`ExecutionSpace.run`.  What a device *costs*
is a descriptor's business — :class:`repro.machine.ProcessorSpec` prices
a kernel, and nothing in ``repro.pp`` returns modeled seconds.  The base
class executes every tile serially in-process; the one other executor —
the shared-memory :func:`repro.pp.procpool.ProcPool` — overrides ``run``
to fan the same decomposition across host cores.  The kernel layer
(:mod:`repro.pp.kernels`) decides *what* the chunks are; the space
decides only *where* they execute, which is how the serial path stays
bitwise-identical when the parallel executor is swapped in.

A launch's one record is a :class:`KernelStats` accumulator (launches,
iterations, measured seconds); :class:`KernelMetrics` is the named pool
of them each ``ComponentContext`` counts its launches in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ExecutionSpace", "Serial", "KernelStats", "KernelMetrics"]


@dataclass
class KernelStats:
    """One kernel's accumulated launch statistics.

    ``seconds`` accumulates measured wall time per launch (supplied by the
    kernel layer, which times each dispatch) — the raw signal the
    measurement-calibrated machine model (:mod:`repro.machine.calibration`)
    fits its per-kernel cost terms against.  With an ``obs`` handle each
    ``record`` is mirrored as ``pp.<kernel>.launches`` (counter),
    ``pp.<kernel>.iterations`` (histogram) and ``pp.<kernel>.seconds``
    (counter).
    """

    launches: int = 0
    iterations: int = 0
    seconds: float = 0.0
    kernel: str = field(default="kernel", repr=False, compare=False)
    obs: Optional[Any] = field(default=None, repr=False, compare=False)

    def record(self, n: int, seconds: float = 0.0) -> None:
        self.launches += 1
        self.iterations += n
        self.seconds += seconds
        if self.obs is not None:
            self.obs.counter(f"pp.{self.kernel}.launches").inc()
            self.obs.histogram(f"pp.{self.kernel}.iterations").observe(float(n))
            if seconds > 0.0:
                self.obs.counter(f"pp.{self.kernel}.seconds").inc(seconds)


class KernelMetrics:
    """Named pool of per-kernel :class:`KernelStats` accumulators.

    One instance lives on each ``ComponentContext`` and
    ``ComponentContext.launch`` asks it for the kernel's accumulator, so
    every launch in a coupled run lands in the pool of the model that
    issued it.  The pool's ``obs`` handle (anything with ``counter`` /
    ``histogram`` methods, e.g. :class:`repro.obs.Obs`) is handed to each
    accumulator, which mirrors its launches into it.
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


@dataclass(frozen=True)
class ExecutionSpace:
    """A named cut of the iteration space into ``lanes`` chunks.

    ``ExecutionSpace("cut", lanes=64)`` cuts every launch the way one
    64-CPE cluster would and runs the chunks serially in-process — the
    form the cut-independence tests and the §5.3 benchmark use.
    """

    name: str
    lanes: int

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")

    def chunks(self, n: int) -> Iterator[np.ndarray]:
        """Partition ``range(n)`` into per-lane contiguous index chunks.

        An empty iteration space (``n == 0``) yields **no** chunks — never
        an empty chunk — so a flat ``parallel_for`` over zero iterations
        calls the functor zero times, matching the MDRange path where a
        zero extent produces zero tiles.
        """
        if n < 0:
            raise ValueError("iteration count must be >= 0")
        if n == 0:
            return
        lanes = min(self.lanes, n)
        bounds = np.linspace(0, n, lanes + 1).astype(np.int64)
        for k in range(lanes):
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                yield np.arange(lo, hi, dtype=np.int64)

    # -- the execution hook (overridden by real parallel backends) --------

    def run(self, functor: Callable, tiles: Sequence[Tuple[np.ndarray, ...]],
            pure: bool = False) -> List:
        """``[functor(*tile) for tile in tiles]``, in tile order.

        A flat launch passes each chunk as a one-axis tile ``(chunk,)``.
        The base class runs serially in-process; a backend may compute the
        tiles concurrently, but writes must land in the caller's arrays
        (see :mod:`repro.pp.procpool`) and the returned list is always
        ordered like ``tiles`` — the fixed-order pairwise reduction tree in
        :func:`repro.pp.kernels.parallel_reduce` relies on this.  ``pure``
        declares the functor free of side effects on its array arguments
        (Kokkos reducer contract): only its return values matter.
        """
        return [functor(*tile) for tile in tiles]


def Serial() -> ExecutionSpace:
    """Single host lane: every launch is one chunk, run in-process."""
    return ExecutionSpace("Serial", lanes=1)
