"""Performance-portability layer: Kokkos-style Views/execution spaces/
parallel dispatch, the hash-based kernel registry (Sunway TMP workaround),
and the SWGOMP directive-style loop offload."""

from .execspace import (
    CPECluster,
    ExecutionSpace,
    GPUDevice,
    HostThreads,
    KernelStats,
    Serial,
)
from .kernels import (
    BoundKernel,
    MDRangePolicy,
    TileProfile,
    parallel_for,
    parallel_reduce,
    parallel_scan,
    reduction_chunks,
)
from .backends import BACKEND_PORTFOLIO, make_backend, select_backend
from .procpool import PoolStats, ProcPool, ProcPoolRuntime, ProcPoolSpace, SharedView
from .registry import HybridDispatcher, KernelRegistry, kernel_hash
from .stats import KernelMetrics, ObsKernelStats
from .swgomp import OffloadStats, TargetLoop, target
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
    "HostThreads",
    "CPECluster",
    "GPUDevice",
    "KernelStats",
    "MDRangePolicy",
    "TileProfile",
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
    "KernelRegistry",
    "kernel_hash",
    "HybridDispatcher",
    "select_backend",
    "BACKEND_PORTFOLIO",
    "KernelMetrics",
    "ObsKernelStats",
    "target",
    "TargetLoop",
    "OffloadStats",
    "View",
    "Layout",
    "MemorySpace",
    "TransferLedger",
    "create_mirror_view",
    "deep_copy",
]
