"""Backend selection: the implementation portfolio (§5.1.1).

"Our team has actively developed architecture-specific versions (CUDA,
HIP, and Athread) of LICOM ... We also implemented a performance-portable
version using Kokkos ... This portfolio of implementations enables AP3ESM
to flexibly select the most suitable implementation for each architecture
to achieve optimal performance."

:func:`select_backend` is that selection: given a machine spec it returns
the execution space kernels should run on (the Athread/CPE cluster on
Sunway, the HIP-like GPU device on ORISE, host threads elsewhere), along
with the implementation label the paper would use.

This lives in ``repro.pp`` because the choice is component-agnostic: the
same execution space is shared by every component through the
``ComponentContext`` (see :mod:`repro.esm.component`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..machine.spec import MachineSpec
from .execspace import CPECluster, ExecutionSpace, GPUDevice, HostThreads, Serial

__all__ = ["select_backend", "make_backend", "BACKEND_PORTFOLIO"]

#: Implementation portfolio: label -> how it maps onto our exec spaces.
BACKEND_PORTFOLIO = {
    "athread": "Sunway CPE cluster (swLICOM)",
    "hip": "GPU device (LICOM3-HIP / LICOMK++ HIP backend)",
    "kokkos-host": "host threads (LICOMK++ OpenMP backend)",
    "serial": "reference single-core",
}


def select_backend(machine: MachineSpec, host_fallback_threads: int = 8) -> Tuple[str, ExecutionSpace]:
    """(implementation label, execution space) for a machine.

    Selection mirrors the paper's practice: Athread on SW26010P nodes,
    the HIP backend on GPU nodes (identified by PCIe staging), the Kokkos
    host backend on plain multicore nodes, serial for single-lane runs.
    """
    node = machine.node
    if "SW26010" in node.name or "sunway" in machine.name.lower():
        # One process per core group: 64 CPEs behind each rank.
        return "athread", CPECluster(64)
    if node.staging_bw is not None:
        return "hip", GPUDevice()
    if node.cores_per_process > 1 or node.processes_per_node > 1:
        return "kokkos-host", HostThreads(host_fallback_threads)
    return "serial", Serial()


def make_backend(name: str, workers: Optional[int] = None) -> ExecutionSpace:
    """Construct an execution space from a CLI/config backend name.

    ``serial``, ``threads`` (modeled multicore), ``cpe``, ``gpu`` are the
    modeled spaces; ``procs`` is the *real* shared-memory process pool
    (:func:`repro.pp.procpool.ProcPool`) that occupies host cores while
    staying bitwise-identical to ``serial``.  ``workers`` sizes the lane
    count where it applies (0 / None means the space default).
    """
    from .procpool import ProcPool  # deferred: keeps multiprocessing import lazy

    n = workers if workers else None
    table = {
        "serial": lambda: Serial(),
        "threads": lambda: HostThreads(n or 8),
        "cpe": lambda: CPECluster(n or 64),
        "gpu": lambda: GPUDevice(n or 4096),
        "procs": lambda: ProcPool(n),
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(table)}"
        ) from None
