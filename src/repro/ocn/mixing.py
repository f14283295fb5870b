"""Canuto-like vertical mixing and the implicit vertical diffusion solver.

The paper's §5.2.2 notes the non-ocean-point removal was first applied to
the *canuto* vertical-mixing scheme; here the scheme is a
Richardson-number closure of the same family (Pacanowski-Philander form
with Canuto-style stability limits):

    Ri    = N^2 / (S^2 + eps)
    kappa = kappa_bg + kappa_0 / (1 + Ri / Ri_c)^p      (Ri >= 0)
    kappa = kappa_max                                   (Ri < 0, unstable)

Vertical diffusion is applied *implicitly* (tridiagonal Thomas solve,
vectorized over all columns) because the mixed-layer kappa at km-scale
stratification makes explicit diffusion unconditionally impractical — the
same reason LICOM solves it implicitly.

The column phases are streamed one level / interface at a time on 2-D
slices that stay in cache, and the solve is split into *factor* (all that
depends on ``kappa``, ``dz``, ``dt`` and the mask) and *solve* (one
right-hand side), so fields with one coefficient set (T and S; U, V, T, Q
in the atmosphere's boundary layer) share a factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ..utils.units import GRAVITY, RHO_OCEAN

__all__ = ["MixingParams", "richardson_number", "canuto_kappa", "column_kappa",
           "ColumnDiffusion", "implicit_vertical_diffusion"]


@dataclass(frozen=True)
class MixingParams:
    kappa_background: float = 1.0e-5   # m^2/s abyssal value
    kappa_0: float = 1.0e-2            # m^2/s mixed-layer scale
    kappa_max: float = 1.0e-1          # m^2/s convective limit
    ri_critical: float = 0.3
    power: float = 2.0
    n2_floor: float = 1.0e-10


def richardson_number(
    rho: np.ndarray, u: np.ndarray, v: np.ndarray, dz: np.ndarray, params: MixingParams | None = None
) -> np.ndarray:
    """Gradient Richardson number at interior interfaces.

    Inputs are (nlev, ...) level fields and (nlev,) thicknesses; output is
    (nlev-1, ...) at the interfaces between adjacent levels (interface k
    sits between levels k and k+1, k increasing downward).
    """
    dzi = 0.5 * (dz[:-1] + dz[1:])
    shape = (-1,) + (1,) * (rho.ndim - 1)
    dzi = dzi.reshape(shape)
    n2 = -(GRAVITY / RHO_OCEAN) * (rho[:-1] - rho[1:]) / dzi  # z up: rho increases down
    du = (u[:-1] - u[1:]) / dzi
    dv = (v[:-1] - v[1:]) / dzi
    s2 = du**2 + dv**2 + 1.0e-12
    return n2 / s2


def canuto_kappa(ri: np.ndarray, params: MixingParams | None = None) -> np.ndarray:
    """Mixing coefficient from the Richardson number (see module docs)."""
    p = params or MixingParams()
    stable = p.kappa_background + p.kappa_0 / (1.0 + np.maximum(ri, 0.0) / p.ri_critical) ** p.power
    return np.where(ri < 0.0, p.kappa_max, stable)


def column_kappa(
    rho: np.ndarray, u: np.ndarray, v: np.ndarray, dz: np.ndarray, params: MixingParams
) -> np.ndarray:
    """``canuto_kappa(richardson_number(...))`` streamed one interface at a
    time (two-level windows of the inputs): (nlev-1, ...) diffusivities."""
    kappa = np.empty((rho.shape[0] - 1,) + rho.shape[1:], rho.dtype)
    for k in range(kappa.shape[0]):
        w = slice(k, k + 2)
        kappa[k] = canuto_kappa(richardson_number(rho[w], u[w], v[w], dz[w], params), params)[0]
    return kappa


@dataclass
class ColumnDiffusion:
    """Backward-Euler vertical diffusion on a fixed column geometry.

    ``dz`` is the (nlev,) layer thicknesses; with the optional (nlev, ...)
    wet mask ``mask3d`` diffusion never crosses the bathymetry (kappa is
    zeroed at interfaces touching dry cells) and dry cells are returned
    unchanged.  The Thomas algorithm runs level by level with all columns
    vectorized — the layout real models use on GPUs.  The off-diagonals are
    held by magnitude (``a = -lower``, ``c = -upper``): ``x - (-l) * y`` is
    the IEEE operation ``x + l * y``, bit for bit the signed textbook form.
    """

    dz: np.ndarray
    mask3d: Optional[np.ndarray] = None

    @cached_property
    def _geometry(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """dz_k dzi_k above and dz_{k+1} dzi_k below interface k; wet pairs."""
        dzi = 0.5 * (self.dz[:-1] + self.dz[1:])
        wet = None if self.mask3d is None else self.mask3d[:-1] & self.mask3d[1:]
        return self.dz[:-1] * dzi, self.dz[1:] * dzi, wet

    def factor(self, kappa: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lower, denom, cp) of the forward sweep for the (nlev-1, ...)
        interface diffusivities; flux coupling dt kappa_k / (dz_k dzi_k)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        nlev = self.dz.shape[0]
        if kappa.shape[0] != nlev - 1:
            raise ValueError("kappa must live on the nlev-1 interior interfaces")
        above, below, wet = self._geometry
        lower, denom, cp = (np.zeros((nlev,) + kappa.shape[1:], kappa.dtype) for _ in range(3))
        for k in range(nlev):
            upper = 0.0  # nothing below the deepest level, as lower[0] above the first
            if k < nlev - 1:
                dtk = dt * (kappa[k] if wet is None else np.where(wet[k], kappa[k], 0.0))
                upper, lower[k + 1] = dtk / above[k], dtk / below[k]
            denom[k] = 1.0 + lower[k] + upper - lower[k] * cp[k - 1]
            cp[k] = upper / denom[k]
        return lower, denom, cp

    def solve(self, factors: Tuple[np.ndarray, ...], field: np.ndarray) -> np.ndarray:
        """One right-hand side: the (nlev, ...) field after the implicit step."""
        lower, denom, cp = factors
        out = np.empty_like(field)
        out[0] = field[0] / denom[0]
        for k in range(1, len(out)):
            out[k] = (field[k] + lower[k] * out[k - 1]) / denom[k]
        for k in range(len(out) - 2, -1, -1):
            out[k] = out[k] + cp[k] * out[k + 1]
        if self.mask3d is not None:
            for k in range(len(out)):
                out[k] = np.where(self.mask3d[k], out[k], field[k])
        return out


def implicit_vertical_diffusion(
    field: np.ndarray,
    kappa: np.ndarray,
    dz: np.ndarray,
    dt: float,
    mask3d: np.ndarray | None = None,
) -> np.ndarray:
    """Backward-Euler vertical diffusion of one (nlev, ...) field: factor and
    solve of :class:`ColumnDiffusion`; ``kappa`` is (nlev-1, ...) at interfaces."""
    column = ColumnDiffusion(dz, mask3d)
    return column.solve(column.factor(kappa, dt), field)
