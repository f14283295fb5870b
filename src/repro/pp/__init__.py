"""Performance-portability layer: execution spaces (executors — what a
device costs lives in :mod:`repro.machine`), Kokkos-style parallel
dispatch and Views, and the hash-based kernel registry (Sunway TMP
workaround).  SWGOMP is ``parallel_for`` on ``ExecutionSpace("cut", lanes=64)``."""

from .execspace import ExecutionSpace, KernelMetrics, KernelStats, Serial
from .kernels import (
    BoundKernel,
    MDRangePolicy,
    parallel_for,
    parallel_reduce,
    parallel_scan,
    reduction_chunks,
)
from .procpool import PoolStats, ProcPool, ProcPoolRuntime, ProcPoolSpace, SharedView, make_backend
from .registry import KERNELS, HybridDispatcher, KernelRegistry, kernel, kernel_hash
from .view import (
    Layout,
    MemorySpace,
    TransferLedger,
    View,
    create_mirror_view,
    deep_copy,
)

__all__ = [
    "ExecutionSpace",
    "Serial",
    "KernelStats",
    "MDRangePolicy",
    "BoundKernel",
    "parallel_for",
    "parallel_reduce",
    "parallel_scan",
    "reduction_chunks",
    "ProcPool",
    "ProcPoolRuntime",
    "ProcPoolSpace",
    "PoolStats",
    "SharedView",
    "make_backend",
    "KERNELS",
    "kernel",
    "KernelRegistry",
    "kernel_hash",
    "HybridDispatcher",
    "KernelMetrics",
    "View",
    "Layout",
    "MemorySpace",
    "TransferLedger",
    "create_mirror_view",
    "deep_copy",
]
