"""Space-polymorphic parallel dispatch: ``parallel_for`` / ``parallel_reduce``
with flat ranges and tiled multi-dimensional ranges (``MDRangePolicy``).

The functor contract is **vectorized**: a flat-range functor receives a
numpy index array (one chunk of the iteration space) and performs its work
for all of them; an MDRange functor receives one tuple of index arrays per
dimension (a tile, in ``np.ix_``-ready form).  Backends differ only in how
they cut the index space — results are bit-identical across execution
spaces because chunks are disjoint and ordered.

``parallel_reduce`` and ``parallel_scan`` decompose the iteration space
with :func:`reduction_chunks` — a decomposition that depends **only on
the iteration count**, never on the execution space — and combine the
per-chunk partials with a fixed-order pairwise tree.  Because every
backend sees the same chunks in the same order, reductions and scans are
bit-for-bit identical across execution spaces (the §5.1 validation
property), not merely deterministic per space.

:class:`BoundKernel` is the picklable functor form (a registered
top-level kernel bound to its runtime arguments) that real process
backends (:mod:`repro.pp.procpool`) can ship to workers; closures still
work everywhere but execute in-process.

A launch's one record is the :class:`KernelStats` accumulator it is
handed (launches, iterations, seconds).  Its tiles need no record of
their own: an MDRange ``parallel_for`` runs exactly
``policy.tiles(space)``, so the "finer-grained tile profiling" the paper
attributes to its Kokkos port is read off the policy.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..utils import pairwise_tree
from .execspace import ExecutionSpace, KernelStats

__all__ = [
    "BoundKernel",
    "MDRangePolicy",
    "parallel_for",
    "parallel_reduce",
    "parallel_scan",
    "reduction_chunks",
]


class BoundKernel:
    """A top-level kernel function bound to its runtime arguments.

    Calling ``BoundKernel(fn, args)(*idx)`` is exactly
    ``fn(*idx, *args)`` — the form every registered kernel takes — so on
    the serial path it is indistinguishable from the closure it replaces.
    Unlike a closure, it is **picklable** whenever ``fn`` is a module-level
    function, which is what lets a process backend ship the functor to
    workers and remap its ndarray arguments into shared memory
    (:mod:`repro.pp.procpool`).
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, args: Tuple = ()):
        self.fn = fn
        self.args = tuple(args)

    def __call__(self, *idx):
        return self.fn(*idx, *self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"BoundKernel({name}, {len(self.args)} args)"


def reduction_chunks(n: int) -> List[np.ndarray]:
    """Space-independent chunking for reductions and scans.

    The decomposition depends only on ``n`` (grain =
    ``max(1024, ceil(n / 64))``), never on the execution space, so the
    fixed-order combine tree sees identical partials on every backend —
    that is what upgrades "deterministic per space" to "bit-for-bit
    across spaces".  ``n == 0`` produces no chunks.
    """
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    if n == 0:
        return []
    grain = max(1024, -(-n // 64))
    return [
        np.arange(s, min(s + grain, n), dtype=np.int64) for s in range(0, n, grain)
    ]


@dataclass(frozen=True)
class MDRangePolicy:
    """A multi-dimensional iteration space with a tile shape.

    Parameters
    ----------
    extents:
        Iteration extents per dimension, e.g. ``(nz, ny, nx)``.
    tile:
        Explicit tile shape, honoured unchanged by every launch.  With
        ``tile=None`` the shape depends on who asks: ``parallel_for``
        resolves it against the execution space (:meth:`tiles` with a
        ``space`` — one tile per lane along the leading dimension, full
        extent in the others, the same cut ``ExecutionSpace.chunks``
        makes of a flat range), while the policy's own space-independent
        default (:attr:`effective_tile`, used by ``parallel_reduce``) is
        "pencils": extent 1 along the leading dimension, full extent in
        the others.
    """

    extents: Tuple[int, ...]
    tile: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.extents or any(e < 0 for e in self.extents):
            # Zero extents are legal (they produce zero tiles); only a
            # missing tuple or a negative extent is a caller error.
            raise ValueError("extents must be a non-empty tuple of integers >= 0")
        if self.tile is not None:
            if len(self.tile) != len(self.extents):
                raise ValueError("tile rank must match extents rank")
            if any(t < 1 for t in self.tile):
                raise ValueError("tile sizes must be >= 1")

    @property
    def effective_tile(self) -> Tuple[int, ...]:
        if self.tile is not None:
            return self.tile
        return (1,) + tuple(max(1, e) for e in self.extents[1:])

    def tiles(
        self, space: Optional[ExecutionSpace] = None
    ) -> List[Tuple[np.ndarray, ...]]:
        """All tiles, each a tuple of per-dimension index arrays.

        With ``tile=None`` and a ``space``, the leading dimension is cut
        by ``space.chunks`` (one tile per lane) instead of into pencils.
        """
        def cut(extent: int, t: int) -> List[np.ndarray]:
            return [
                np.arange(s, min(s + t, extent), dtype=np.int64)
                for s in range(0, extent, t)
            ]

        tile = self.effective_tile
        if self.tile is None and space is not None:
            lead = list(space.chunks(self.extents[0]))
        else:
            lead = cut(self.extents[0], tile[0])
        rest = [cut(e, t) for e, t in zip(self.extents[1:], tile[1:])]
        return list(itertools.product(lead, *rest))

    @property
    def n_iterations(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n


def parallel_for(
    space: ExecutionSpace,
    policy,
    functor: Callable,
    stats: Optional[KernelStats] = None,
) -> None:
    """Execute ``functor`` over an iteration space on ``space``.

    ``policy`` is either an int ``n`` (flat range; functor receives an index
    array) or an :class:`MDRangePolicy` (functor receives one index array
    per dimension).  Both are cut to fit the space: a flat range into
    ``space.chunks(n)``, an MDRange into ``policy.tiles(space)`` — without
    an explicit ``tile``, one tile per lane along its leading dimension
    (``Serial`` launches one tile, ``ProcPool(2)`` two); an explicit
    ``tile`` is honoured unchanged.
    """
    if isinstance(policy, MDRangePolicy):
        n = policy.n_iterations
        tiles = policy.tiles(space)
        t0 = time.perf_counter()
        space.run(functor, tiles)
    else:
        n = int(policy)
        t0 = time.perf_counter()
        space.run(functor, [(c,) for c in space.chunks(n)])
    elapsed = time.perf_counter() - t0
    if stats is not None:
        stats.record(n, elapsed)


def parallel_reduce(
    space: ExecutionSpace,
    policy,
    functor: Callable,
    combine: Callable = np.add,
    stats: Optional[KernelStats] = None,
):
    """Reduce per-chunk partial results with a deterministic pairwise tree.

    ``functor(chunk_indices) -> partial`` for flat ranges, or
    ``functor(*tile_indices) -> partial`` for MDRanges.  The functor must be
    **pure** with respect to its array arguments (Kokkos reducer contract) —
    backends may evaluate chunks in worker processes.  ``combine`` need not
    be commutative: partials are combined in a fixed-order pairwise tree
    over a space-independent decomposition (:func:`reduction_chunks`, or
    the MDRange's own ``tile`` / pencil default — never the lane-sized
    tiles ``parallel_for`` uses, because here the tiles fix the combine
    tree), so results are reproducible bit-for-bit on every space.

    An empty iteration space — flat ``n == 0`` **or** an MDRange with any
    zero extent — raises ``ValueError``: with a caller-supplied ``combine``
    there is no identity element to return.
    """
    t0 = time.perf_counter() if stats is not None else 0.0
    if isinstance(policy, MDRangePolicy):
        n = policy.n_iterations
        partials = space.run(functor, policy.tiles(), pure=True)
    else:
        n = int(policy)
        partials = space.run(functor, [(c,) for c in reduction_chunks(n)], pure=True)
    if stats is not None:
        stats.record(n, time.perf_counter() - t0)
    if not partials:
        raise ValueError(
            "empty iteration space has no reduction identity here "
            "(flat n == 0 and MDRange zero extents both raise)"
        )
    return pairwise_tree(partials, combine)


def _scan_local(
    chunk: np.ndarray,
    values: np.ndarray,
    out: np.ndarray,
    totals: np.ndarray,
    starts: np.ndarray,
) -> None:
    """Per-chunk exclusive local scan; records the chunk total.

    Top-level (picklable) so a process backend can run the local-scan pass
    in workers; the chunk's slot in ``totals`` is recovered from its first
    index via ``starts`` (chunks are contiguous and sorted).
    """
    v = values[chunk]
    local = np.cumsum(v, axis=0)
    out[chunk] = local - v  # exclusive
    totals[np.searchsorted(starts, chunk[0])] = local[-1]


def parallel_scan(
    space: ExecutionSpace,
    n: int,
    values: np.ndarray,
    stats: Optional[KernelStats] = None,
) -> np.ndarray:
    """Exclusive prefix sum over ``values`` (length ``n``).

    Implemented chunk-wise like a two-pass GPU scan: per-chunk local scans
    (parallelizable, dispatched through the space), then a serial scan of
    chunk totals with offset application.  The decomposition is the
    space-independent :func:`reduction_chunks`, so output is bit-for-bit
    identical on every backend.  ``n == 0`` is a legal launch and returns
    an empty array of the same dtype/trailing shape.
    """
    values = np.asarray(values)
    if values.shape[0] != n:
        raise ValueError("values length must equal n")
    out = np.empty_like(values)
    if n == 0:
        if stats is not None:
            stats.record(n)
        return out
    t0 = time.perf_counter() if stats is not None else 0.0
    chunk_list = reduction_chunks(n)
    starts = np.array([c[0] for c in chunk_list], dtype=np.int64)
    totals = np.zeros((len(chunk_list),) + values.shape[1:], dtype=out.dtype)
    space.run(
        BoundKernel(_scan_local, (values, out, totals, starts)),
        [(c,) for c in chunk_list],
    )
    offset = np.zeros_like(values[0])
    for k, chunk in enumerate(chunk_list):
        out[chunk] += offset
        offset = offset + totals[k]
    if stats is not None:
        stats.record(n, time.perf_counter() - t0)
    return out

