"""Hash-based kernel registration and callback.

§5.3 of the paper: "For the Sunway architecture, we propose a hash-based
function registration and callback mechanism to enable Kokkos execution on
TMP-constrained Sunway processors."  The Sunway compilers cannot instantiate
C++ template functors on the CPEs, so the port registers every kernel under
a stable hash at host-side start-up; the device receives only the hash and
*calls back* into the registered function.

This module reproduces that mechanism: kernels are registered under a
stable content hash (qualified name + arity), lookups go through the hash
only, and double-registration under a colliding hash is detected — the
failure mode the real system must guard against.  :data:`KERNELS` is the
one process-wide table: every component kernel joins it exactly once, at
import, through the :func:`kernel` decorator, and
:meth:`repro.component.ComponentContext.launch` is handed only the hash.

It also implements the **hybrid host-device parallelism** of §5.3: a
:class:`HybridDispatcher` splits one iteration space between a host space
and a device space in a given ratio, which is how the port keeps the MPE
busy while the CPEs work.  Which ratio balances two devices is a pricing
question: derive it from their :class:`repro.machine.ProcessorSpec` rates.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .execspace import ExecutionSpace
from .kernels import BoundKernel, parallel_for

__all__ = ["KERNELS", "kernel", "KernelRegistry", "kernel_hash", "HybridDispatcher"]


def kernel_hash(fn: Callable) -> int:
    """Stable 64-bit hash identifying a kernel function.

    Derived from the qualified name and parameter list — the information a
    host-side registration pass has about a functor.  Content (bytecode) is
    deliberately excluded: the host and device binaries of the real system
    are compiled separately, so only the interface can be hashed.
    """
    try:
        sig = str(inspect.signature(fn))
    except (TypeError, ValueError):
        sig = "(?)"
    ident = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}{sig}"
    digest = hashlib.sha256(ident.encode()).digest()
    return int.from_bytes(digest[:8], "little")


class KernelRegistry:
    """Host-side table of device-callable kernels, keyed by hash.

    A table holds functions and the name each one's launches are counted
    under, nothing per-run: the coupled model uses the process-wide
    :data:`KERNELS`, and launch bookkeeping is the
    :class:`repro.pp.KernelMetrics` pool of whichever
    :class:`~repro.component.ComponentContext` launches.
    """

    def __init__(self) -> None:
        self._table: Dict[int, Callable] = {}
        self._names: Dict[int, str] = {}

    def register(self, fn: Callable, name: Optional[str] = None) -> int:
        """Register ``fn``; returns its hash handle.

        ``name`` is what the kernel's launches are counted under
        (``atm.radiation``; the qualified name when omitted).
        Re-registering the *same* function is idempotent; registering a
        *different* function under a colliding hash raises (hash collisions
        would silently corrupt device dispatch otherwise).
        """
        h = kernel_hash(fn)
        existing = self._table.get(h)
        if existing is not None and existing is not fn:
            raise ValueError(
                f"hash collision: {self._names[h]!r} and "
                f"{getattr(fn, '__qualname__', fn)!r} map to {h:#x}"
            )
        self._table[h] = fn
        self._names[h] = name or getattr(fn, "__qualname__", repr(fn))
        return h

    def kernel(self, stats_name: str) -> Callable[[Callable], Callable]:
        """Decorator form, ``@registry.kernel("atm.radiation")``: register
        under that metrics name.  Returns the function itself (picklable by
        reference, as :class:`~repro.pp.kernels.BoundKernel` needs), tagged
        with the ``handle`` that launches pass instead of it."""

        def join(fn: Callable) -> Callable:
            fn.handle = self.register(fn, stats_name)
            return fn

        return join

    def lookup(self, handle: int) -> Callable:
        """Device-side callback: resolve a hash to the registered kernel."""
        try:
            return self._table[handle]
        except KeyError:
            raise KeyError(f"no kernel registered under handle {handle:#x}") from None

    def stats_name(self, handle: int) -> str:
        """The name ``handle``'s launches are counted under."""
        return self._names[handle]

    def launch(self, space: ExecutionSpace, handle: int, policy, *args, **kwargs) -> None:
        """Launch-by-handle: what the device runtime does with the hash.

        Works for flat ranges (kernel receives one index-array chunk) and
        for :class:`~repro.pp.kernels.MDRangePolicy` (kernel receives one
        index array per dimension, ``np.ix_``-ready).  The functor is a
        picklable :class:`~repro.pp.kernels.BoundKernel`, so process
        backends can ship registered kernels to workers; serial behavior
        is unchanged (``BoundKernel(fn, args)(*idx) == fn(*idx, *args)``).
        """
        parallel_for(space, policy, BoundKernel(self.lookup(handle), args), **kwargs)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, handle: int) -> bool:
        return handle in self._table


#: The process-wide table (§5.3: registered once, host-side, at start-up)
#: and the decorator by which a component kernel joins it at import.
KERNELS = KernelRegistry()
kernel = KERNELS.kernel


@dataclass
class HybridDispatcher:
    """Split one flat iteration space between host and device spaces.

    Parameters
    ----------
    host, device:
        The two execution spaces sharing the work.
    device_fraction:
        Fraction of iterations sent to the device; the remainder runs on
        the host.
    """

    host: ExecutionSpace
    device: ExecutionSpace
    device_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.device_fraction <= 1.0:
            raise ValueError("device_fraction must be in [0, 1]")

    def split(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(host_indices, device_indices) partitioning ``range(n)``."""
        n_dev = int(round(n * self.device_fraction))
        dev = np.arange(0, n_dev, dtype=np.int64)
        host = np.arange(n_dev, n, dtype=np.int64)
        return host, dev

    def run(self, n: int, functor: Callable) -> None:
        """Execute ``functor`` over the split space (device part first, as
        the real system launches the CPE kernel before the MPE tail)."""
        host_idx, dev_idx = self.split(n)
        if len(dev_idx):
            parallel_for(self.device, len(dev_idx), lambda c: functor(dev_idx[c]))
        if len(host_idx):
            parallel_for(self.host, len(host_idx), lambda c: functor(host_idx[c]))
