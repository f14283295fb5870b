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
four overridable hooks (``run_chunks`` / ``map_chunks`` / ``run_tiles`` /
``map_tiles``).  What a device *costs* is a descriptor's business —
:class:`repro.machine.ProcessorSpec` prices a kernel, and nothing in
``repro.pp`` returns modeled seconds.  The base class executes every
chunk or tile serially in-process; the one other executor — the
shared-memory :func:`repro.pp.procpool.ProcPool` — overrides the hooks to
fan the same decomposition across host cores.  The kernel layer
(:mod:`repro.pp.kernels`) decides *what* the chunks are; the space
decides only *where* they execute, which is how the serial path stays
bitwise-identical when the parallel executor is swapped in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["ExecutionSpace", "Serial", "KernelStats"]


@dataclass
class KernelStats:
    """Per-space accumulated kernel launch statistics.

    ``seconds`` accumulates measured wall time per launch (supplied by the
    kernel layer, which times each dispatch) — the raw signal the
    measurement-calibrated machine model (:mod:`repro.machine.calibrate`)
    fits its per-kernel cost terms against.
    """

    launches: int = 0
    iterations: int = 0
    seconds: float = 0.0

    def record(self, n: int, seconds: float = 0.0) -> None:
        self.launches += 1
        self.iterations += n
        self.seconds += seconds


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

    # -- execution hooks (overridden by real parallel backends) ------------

    def run_chunks(self, functor: Callable, chunks: Sequence[np.ndarray]) -> None:
        """Execute ``functor(chunk)`` for every chunk (side effects only).

        The base class runs serially in-process; a real backend may fan
        the chunks across workers, provided writes land in the caller's
        arrays (see :mod:`repro.pp.procpool`).
        """
        for chunk in chunks:
            functor(chunk)

    def map_chunks(self, functor: Callable, chunks: Sequence[np.ndarray]) -> List:
        """``[functor(chunk) for chunk in chunks]``, in chunk order.

        Backends may compute the results concurrently, but the returned
        list is always ordered like ``chunks`` — the fixed-order pairwise
        reduction tree in :func:`repro.pp.kernels.parallel_reduce` relies
        on this.  Functors used with ``map_chunks`` must be pure with
        respect to their array arguments (Kokkos reducer contract).
        """
        return [functor(chunk) for chunk in chunks]

    def run_tiles(self, functor: Callable, tiles: Sequence[Tuple[np.ndarray, ...]]) -> None:
        """Execute ``functor(*tile)`` for every MDRange tile."""
        for tile in tiles:
            functor(*tile)

    def map_tiles(self, functor: Callable, tiles: Sequence[Tuple[np.ndarray, ...]]) -> List:
        """``[functor(*tile) for tile in tiles]``, in tile order."""
        return [functor(*tile) for tile in tiles]


def Serial() -> ExecutionSpace:
    """Single host lane: every launch is one chunk, run in-process."""
    return ExecutionSpace("Serial", lanes=1)
