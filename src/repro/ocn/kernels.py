"""LICOMK++-style kernels: the ocean's hot loops expressed through the
performance-portability layer.

The paper's LICOMK++ "implemented a performance-portable version using
Kokkos", with a hash-based registry standing in for template dispatch on
Sunway and host-device hybrid execution.  This module ports three of this
library's ocean kernels to that programming model — they join
:data:`repro.pp.KERNELS` at import and launch by hash through the
caller's :class:`~repro.component.ComponentContext`:

* :func:`eos_kernel` — the linear equation of state (pointwise);
* :func:`canuto_kernel` — the Richardson-closure mixing coefficient
  (pointwise on interfaces), the very kernel §5.2.2 says the compression
  was first applied to — and it composes with :class:`~repro.ocn.compress.
  Compressor`, running on packed wet points;
* :func:`baroclinic_pressure_kernel` — the hydrostatic column integral as
  an MDRange over (columns,) with a serial level scan (the layout GPU
  ports use).

Each has a plain-numpy reference in the solver modules; the tests require
bit-identical results on every execution space, with and without
compression — the full §5.3 + §5.2.2 composition.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..component import ComponentContext
from ..pp import kernel
from ..utils.units import GRAVITY, RHO_OCEAN
from .baroclinic import linear_eos
from .compress import Compressor
from .mixing import MixingParams, canuto_kappa

__all__ = [
    "eos_kernel",
    "canuto_kernel",
    "baroclinic_pressure_kernel",
    "run_eos",
    "run_canuto",
    "run_pressure",
]


@kernel("ocn.eos")
def eos_kernel(idx: np.ndarray, rho: np.ndarray, t: np.ndarray, s: np.ndarray) -> None:
    """rho = rho0 (1 - alpha (T - T0) + beta (S - S0)) on flat points."""
    rho[idx] = linear_eos(t[idx], s[idx])


@kernel("ocn.canuto")
def canuto_kernel(
    idx: np.ndarray,
    kappa: np.ndarray,
    ri: np.ndarray,
    kappa_background: float,
    kappa_0: float,
    kappa_max: float,
    ri_critical: float,
    power: float,
) -> None:
    """Richardson-closure mixing coefficient on flat interface points."""
    params = MixingParams(kappa_background, kappa_0, kappa_max, ri_critical, power)
    kappa[idx] = canuto_kappa(ri[idx], params)


@kernel("ocn.pressure")
def baroclinic_pressure_kernel(
    idx: np.ndarray,
    p: np.ndarray,
    rho_anom: np.ndarray,
    dz: np.ndarray,
) -> None:
    """Hydrostatic pressure per column chunk: p[k] = g (sum_{j<k} ra_j dz_j
    + ra_k dz_k / 2).  ``p``/``rho_anom`` are (ncol, nlev); the kernel owns
    a chunk of columns and scans levels serially (nlev is small)."""
    nlev = p.shape[1]
    cum = np.zeros(len(idx))
    for k in range(nlev):
        contrib = rho_anom[idx, k] * dz[k]
        p[idx, k] = GRAVITY * (cum + 0.5 * contrib)
        cum = cum + contrib


# -- host-callable wrappers (launch by hash through the caller's context) --


def run_eos(
    ctx: ComponentContext,
    t: np.ndarray,
    s: np.ndarray,
    compressor: Optional[Compressor] = None,
) -> np.ndarray:
    """Density via the portable kernel; optionally on packed wet points."""
    if compressor is not None:
        t_p = compressor.compress(t)
        s_p = compressor.compress(s)
        rho_p = np.zeros_like(t_p)
        ctx.launch(eos_kernel.handle, len(t_p), rho_p, t_p, s_p)
        return compressor.decompress(rho_p)
    flat_t = t.ravel()
    flat_s = s.ravel()
    rho = np.zeros_like(flat_t)
    ctx.launch(eos_kernel.handle, flat_t.size, rho, flat_t, flat_s)
    return rho.reshape(t.shape)


def run_canuto(
    ctx: ComponentContext,
    ri: np.ndarray,
    params: Optional[MixingParams] = None,
    compressor: Optional[Compressor] = None,
) -> np.ndarray:
    """Mixing coefficient via the portable kernel (packed or full)."""
    prm = params or MixingParams()
    args = (prm.kappa_background, prm.kappa_0, prm.kappa_max, prm.ri_critical, prm.power)
    if compressor is not None:
        ri_p = compressor.compress(ri)
        kappa_p = np.zeros_like(ri_p)
        ctx.launch(canuto_kernel.handle, len(ri_p), kappa_p, ri_p, *args)
        return compressor.decompress(kappa_p)
    flat = ri.ravel()
    kappa = np.zeros_like(flat)
    ctx.launch(canuto_kernel.handle, flat.size, kappa, flat, *args)
    return kappa.reshape(ri.shape)


def run_pressure(
    ctx: ComponentContext,
    t: np.ndarray,
    s: np.ndarray,
    dz: np.ndarray,
) -> np.ndarray:
    """Hydrostatic pressure via the portable column kernel.

    ``t``/``s`` are (nlev, nlat, nlon); returns pressure in the same
    layout (columns are the parallel dimension, matching the GPU port).
    """
    nlev = t.shape[0]
    rho_anom = linear_eos(t, s) - RHO_OCEAN
    cols = rho_anom.reshape(nlev, -1).T.copy()  # (ncol, nlev)
    p = np.zeros_like(cols)
    ctx.launch(baroclinic_pressure_kernel.handle, cols.shape[0], p, cols, dz)
    return p.T.reshape(t.shape)
