"""ProcPool: a real multi-core execution backend for the pp layer, and
:func:`make_backend`, the executor selection by name.

The base :class:`~repro.pp.execspace.ExecutionSpace` executes its chunks
serially in-process.  ``ProcPool`` actually occupies the host: a
persistent ``multiprocessing`` worker pool executes chunks and tiles
concurrently, with kernel array arguments staged into
``multiprocessing.shared_memory`` segments so workers map them zero-copy
(:class:`SharedView`).  Dispatch goes through the one execution hook
every space implements, ``ExecutionSpace.run``, so ``parallel_for`` /
``parallel_reduce`` / ``parallel_scan`` and all registered component
kernels run unchanged —
and, because the chunk decomposition and the fixed-order combine tree are
space-independent, **bit-for-bit identically** to the serial backend
(the §5.1 validation property).

What parallelizes, and what falls back
--------------------------------------

* Side-effecting launches (``pure=False``) ship work to the pool only for
  :class:`~repro.pp.kernels.BoundKernel` functors — a module-level kernel
  bound to its arguments, the form every ``KernelRegistry.launch``
  produces.  Worker writes land in the caller's arrays because every
  ndarray argument is remapped into shared memory and copied back after
  the dispatch.  Closures cannot make that guarantee (their captured
  arrays would be silently copied by fork/pickle and the writes lost), so
  they run in-process, counted as fallbacks.
* Pure launches (``pure=True`` — the reducer contract) also accept any
  picklable functor, since only the *return values* travel back.
* Single-chunk launches and unpicklable functors always fall back to
  in-process execution; correctness never depends on the pool.

Shared-memory lifetime rules
----------------------------

Segments are owned by the parent: a power-of-two arena acquires them on
first use, reuses them across dispatches (workers cache their
attachments by segment name), and closes + unlinks them in
:meth:`ProcPoolRuntime.shutdown` (also registered via ``atexit``).
Workers never unlink.  Under the default ``fork`` start method the
resource tracker is shared, so worker attachments need no registration
bookkeeping; under ``spawn`` each attach is unregistered child-side to
keep the tracker from double-unlinking.

Obs metrics: ``pp.procpool.dispatches``, ``pp.procpool.tasks``,
``pp.procpool.fallbacks`` (counters), ``pp.procpool.bytes_shared`` and
``pp.procpool.occupancy`` (gauges).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import pickle
import sys
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .execspace import ExecutionSpace, Serial
from .kernels import BoundKernel

__all__ = ["ProcPool", "ProcPoolRuntime", "ProcPoolSpace", "PoolStats", "SharedView", "make_backend"]


@dataclass(frozen=True)
class SharedView:
    """Picklable recipe for re-materializing a numpy array in a worker.

    Workers attach the named segment (cached per worker by name) and wrap
    its buffer with ``np.ndarray(shape, dtype, buffer=...)`` — no data is
    copied across the process boundary.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def materialize(self, buf) -> np.ndarray:
        return np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=buf)


# -- worker side -----------------------------------------------------------

_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_UNREGISTER_ON_ATTACH = False


def _pool_init(unregister_on_attach: bool) -> None:
    global _UNREGISTER_ON_ATTACH
    _UNREGISTER_ON_ATTACH = unregister_on_attach


def _attach(view: SharedView) -> np.ndarray:
    shm = _ATTACHED.get(view.name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=view.name)
        if _UNREGISTER_ON_ATTACH:
            # Under spawn each process runs its own resource tracker; the
            # parent owns the segment, so drop the child-side registration
            # or the tracker would unlink it twice.  Under fork the
            # tracker is shared and registrations dedupe — do nothing.
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        _ATTACHED[view.name] = shm
    return view.materialize(shm.buf)


def _unpack_index(spec) -> np.ndarray:
    if isinstance(spec, tuple):
        lo, hi = spec
        return np.arange(lo, hi, dtype=np.int64)
    return spec


def _exec(fn: Callable, arg_specs: Tuple, tiles: List) -> List:
    """Run a batch of tiles of one kernel in this worker."""
    args = tuple(_attach(a) if isinstance(a, SharedView) else a for a in arg_specs)
    return [fn(*(_unpack_index(ix) for ix in tile), *args) for tile in tiles]


# -- parent side -----------------------------------------------------------


def _pack_index(idx: np.ndarray):
    """Encode a contiguous ascending index array as a (lo, hi) range."""
    n = len(idx)
    if n and int(idx[-1]) - int(idx[0]) + 1 == n and np.all(np.diff(idx) == 1):
        lo = int(idx[0])
        return (lo, lo + n)
    return idx


class _ShmArena:
    """Power-of-two freelist of shared-memory segments, reused forever.

    Reuse matters twice over: segment creation is a syscall + mmap, and
    workers cache attachments by name — a recycled segment is already
    mapped in every worker that has seen it.
    """

    MIN_BYTES = 4096

    def __init__(self) -> None:
        self._free: Dict[int, List[shared_memory.SharedMemory]] = {}
        self._all: List[shared_memory.SharedMemory] = []

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        size = max(self.MIN_BYTES, 1 << max(0, int(nbytes) - 1).bit_length())
        bucket = self._free.get(size)
        if bucket:
            return bucket.pop()
        shm = shared_memory.SharedMemory(create=True, size=size)
        self._all.append(shm)
        return shm

    def release(self, shm: shared_memory.SharedMemory) -> None:
        self._free.setdefault(shm.size, []).append(shm)

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self._all)

    def destroy(self) -> None:
        for shm in self._all:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._all.clear()
        self._free.clear()


@dataclass
class PoolStats:
    """Cumulative dispatch statistics for one :class:`ProcPoolRuntime`."""

    workers: int = 0
    dispatches: int = 0  # launches fanned across the pool
    tasks: int = 0  # worker task batches submitted
    fallbacks: int = 0  # launches executed in-process instead
    bytes_shared: int = 0  # cumulative bytes staged into shared memory

    @property
    def occupancy(self) -> float:
        """Mean worker tasks per dispatch relative to pool width."""
        if not self.dispatches or not self.workers:
            return 0.0
        return self.tasks / (self.dispatches * self.workers)


class ProcPoolRuntime:
    """Owner of the worker pool, the shared-memory arena, and the stats.

    Lazily started: the pool forks on the first dispatch — or eagerly via
    :meth:`ensure_started`, which the coupled driver calls *before* it
    spawns scheduler threads (forking a threaded process is the classic
    deadlock; fork first, thread later).
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.stats = PoolStats(workers=n_workers)
        self.obs: Optional[Any] = None
        self._pool = None
        self._arena = _ShmArena()
        # Keyed by the callable itself (a strong reference): id() keys are
        # unsafe because CPython reuses addresses of collected functions,
        # which would let a dead lambda's verdict shadow a real kernel.
        self._picklable: Dict[Callable, bool] = {}

    # -- lifecycle ---------------------------------------------------------

    def ensure_started(self) -> None:
        if self._pool is not None:
            return
        method = "fork" if "fork" in mp.get_all_start_methods() else None
        ctx = mp.get_context(method)
        unregister = ctx.get_start_method() != "fork"
        if not unregister:
            # Start the resource tracker BEFORE forking so workers inherit
            # it: attach registrations then dedupe in the one shared
            # tracker and the parent's unlink cleans up exactly once.  A
            # worker forked tracker-less would lazily spawn its own and
            # report every cached attachment as leaked at exit.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - tracker API moved
                pass
        self._pool = ctx.Pool(
            self.n_workers, initializer=_pool_init, initargs=(unregister,)
        )
        atexit.register(self.shutdown)

    @property
    def started(self) -> bool:
        return self._pool is not None

    def shutdown(self) -> None:
        """Terminate workers and unlink every shared segment (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._arena.destroy()

    # -- dispatch ----------------------------------------------------------

    def _fn_picklable(self, fn: Callable) -> bool:
        """True if ``fn`` can be shipped to a worker AND resolved there.

        Picklability alone is not enough: a function defined in
        ``__main__`` (or in a local scope) pickles by reference in the
        parent but cannot be resolved in a worker that forked before the
        definition existed — the unpickling AttributeError kills the
        worker mid-``get()`` and the dispatch hangs.  Such functors are
        refused up front and run in-process instead.
        """
        try:
            ok = self._picklable.get(fn)
        except TypeError:  # unhashable callable
            return self._resolvable(fn)
        if ok is None:
            ok = self._resolvable(fn)
            self._picklable[fn] = ok
        return ok

    @staticmethod
    def _resolvable(fn: Callable) -> bool:
        mod = getattr(fn, "__module__", None)
        qual = getattr(fn, "__qualname__", None)
        if mod == "__main__" or (qual is not None and "<" in qual):
            return False
        if qual is not None and mod is not None:
            # A plain function: verify it resolves back to itself, the
            # exact lookup a worker performs when unpickling by reference.
            obj: Any = sys.modules.get(mod)
            for part in qual.split("."):
                obj = getattr(obj, part, None)
            if obj is not fn:
                return False
        try:
            pickle.dumps(fn)
            return True
        except Exception:
            return False

    def _stage_args(self, args: Tuple):
        """Replace ndarray args with SharedViews; returns (specs, staged).

        Deduplicates by object identity so aliased arguments share one
        segment (writes through either name stay coherent in workers).
        Returns ``(None, None)`` if an argument cannot cross the boundary,
        decided before any segment is acquired.
        """
        if any(a.dtype.hasobject if isinstance(a, np.ndarray)
               else callable(a) and not self._fn_picklable(a) for a in args):
            return None, None
        specs: List[Any] = []
        staged: Dict[int, Tuple[np.ndarray, shared_memory.SharedMemory]] = {}
        views: Dict[int, SharedView] = {}
        for a in args:
            if isinstance(a, np.ndarray):
                key = id(a)
                if key not in staged:
                    shm = self._arena.acquire(a.nbytes)
                    shared = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf)
                    shared[...] = a
                    staged[key] = (a, shm)
                    views[key] = SharedView(shm.name, a.shape, a.dtype.str)
                    self.stats.bytes_shared += int(a.nbytes)
                specs.append(views[key])
            else:
                specs.append(a)
        return specs, staged

    def _submit(self, payloads: List[Tuple]) -> List:
        batches = self._pool.starmap(_exec, payloads)
        self.stats.dispatches += 1
        self.stats.tasks += len(payloads)
        if self.obs is not None:
            self.obs.counter("pp.procpool.dispatches").inc()
            self.obs.counter("pp.procpool.tasks").inc(float(len(payloads)))
            self.obs.gauge("pp.procpool.occupancy").set(self.stats.occupancy)
            self.obs.gauge("pp.procpool.bytes_shared").set(
                float(self.stats.bytes_shared)
            )
        return [r for batch in batches for r in batch]

    def _batched(self, tiles: Sequence) -> List[List]:
        """Pack tiles into at most ``2 * n_workers`` ordered batches."""
        n_tasks = min(len(tiles), self.n_workers * 2)
        bounds = np.linspace(0, len(tiles), n_tasks + 1).astype(int)
        packed = [tuple(_pack_index(ix) for ix in t) for t in tiles]
        return [
            list(packed[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]

    def dispatch(self, functor: Callable, tiles: Sequence, pure: bool) -> Optional[List]:
        """Fan ``functor`` over ``tiles`` across the pool, results in tile
        order; ``None`` means the caller must run them in-process.

        A :class:`BoundKernel` ships its ``fn`` and stages its ndarray
        arguments; a bare functor ships whole, and only when ``pure``.
        Staged arrays are copied back unless ``pure``.
        """
        bound = isinstance(functor, BoundKernel)
        fn, args = (functor.fn, functor.args) if bound else (functor, ())
        specs = staged = None
        if len(tiles) >= 2 and (bound or pure) and self._fn_picklable(fn):
            specs, staged = self._stage_args(args)
        if staged is None:
            self.stats.fallbacks += 1
            if self.obs is not None:
                self.obs.counter("pp.procpool.fallbacks").inc()
            return None
        self.ensure_started()
        try:
            payloads = [(fn, tuple(specs), batch) for batch in self._batched(tiles)]
            results = self._submit(payloads)
        finally:
            if not pure:
                for a, shm in staged.values():
                    if a.flags.writeable:
                        a[...] = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf)
            for _, shm in staged.values():
                self._arena.release(shm)
        return results


@dataclass(frozen=True)
class ProcPoolSpace(ExecutionSpace):
    """ExecutionSpace whose ``run`` fans tiles across a worker pool.

    Decomposition (``chunks`` / ``reduction_chunks`` / tiles) is inherited
    unchanged, so results are bitwise-identical to Serial; only the
    *where* changes.  Launches the pool cannot take (closure functors on
    write paths, single tiles, unpicklable anything) run in-process via
    the base-class ``run`` and are counted as fallbacks.
    """

    runtime: ProcPoolRuntime = field(default=None)  # type: ignore[assignment]

    def run(self, functor, tiles, pure=False):
        out = self.runtime.dispatch(functor, tiles, pure)
        return super().run(functor, tiles, pure) if out is None else out


def ProcPool(n_workers: Optional[int] = None) -> ProcPoolSpace:
    """A shared-memory process-pool execution space over ``n_workers`` cores.

    Defaults to every available core.  The pool itself starts lazily on
    the first parallel dispatch; call ``space.runtime.ensure_started()``
    to fork it eagerly (required before creating threads), and
    ``space.runtime.shutdown()`` to release workers and shared segments.
    """
    n = n_workers if n_workers is not None else (mp.cpu_count() or 1)
    if n < 1:
        raise ValueError("n_workers must be >= 1")
    return ProcPoolSpace(name="ProcPool", lanes=n, runtime=ProcPoolRuntime(n))


def make_backend(name: str, workers: Optional[int] = None) -> ExecutionSpace:
    """The execution space ``--backend`` / ``AP3ESMConfig.backend`` names:
    ``serial`` (one in-process lane) or ``procs`` (:func:`ProcPool` over
    ``workers`` cores, 0 / None meaning all), bitwise-identical to each
    other.  Devices are priced, not executed (:mod:`repro.machine`)."""
    if name == "serial":
        return Serial()
    if name == "procs":
        return ProcPool(workers or None)
    raise ValueError(f"unknown backend {name!r}; expected 'serial' or 'procs'")
