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

The column phases run on whole (nlev-1, ...) interface and (nlev, ...)
level stacks with in-place ops; only the Thomas recurrences loop over
levels, a row at a time.  The solve is split into *factor* (all that depends
on ``kappa``, ``dz``, ``dt`` and the mask) and *solve* (one right-hand side),
so fields with one coefficient set (T and S; U, V, T, Q in the atmosphere's
boundary layer) share a factorisation.  An in-place op rounds in its
buffer's dtype, so each phase raises ``TypeError`` on arrays of two dtypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _one_dtype(phase: str, *arrays: np.ndarray) -> None:
    if len({a.dtype for a in arrays}) > 1:
        raise TypeError(f"{phase} takes its arrays in one dtype, got {[str(a.dtype) for a in arrays]}")


def richardson_number(rho: np.ndarray, u: np.ndarray, v: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Gradient Richardson number at interior interfaces.

    Inputs are (nlev, ...) level fields and (nlev,) thicknesses in one
    dtype; output is (nlev-1, ...) at the interfaces between adjacent levels
    (interface k sits between levels k and k+1, k increasing downward).
    """
    _one_dtype("richardson_number", rho, u, v, dz)
    dzi = (0.5 * (dz[:-1] + dz[1:])).reshape((-1,) + (1,) * (rho.ndim - 1))
    s2, ri = (np.subtract(f[:-1], f[1:]) for f in (u, v))
    for d in (s2, ri):
        d /= dzi
        d **= 2
    s2 += ri
    s2 += 1.0e-12                       # S^2 = du^2 + dv^2 + eps
    np.subtract(rho[:-1], rho[1:], out=ri)
    ri *= -(GRAVITY / RHO_OCEAN)        # z up: rho increases down
    ri /= dzi                           # N^2
    ri /= s2
    return ri


def canuto_kappa(
    ri: np.ndarray, params: MixingParams | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Mixing coefficient from the Richardson number (see module docs).

    Written into ``out`` if given, which may be ``ri`` itself."""
    p = params or MixingParams()
    unstable = ri < 0.0
    kappa = np.maximum(ri, 0.0, out=out)
    kappa /= p.ri_critical
    kappa += 1.0
    kappa **= p.power
    np.divide(p.kappa_0, kappa, out=kappa)
    kappa += p.kappa_background
    np.copyto(kappa, p.kappa_max, where=unstable)
    return kappa


def column_kappa(
    rho: np.ndarray, u: np.ndarray, v: np.ndarray, dz: np.ndarray, params: MixingParams
) -> np.ndarray:
    """``canuto_kappa(richardson_number(...))`` in one (nlev-1, ...) buffer."""
    ri = richardson_number(rho, u, v, dz)
    return canuto_kappa(ri, params, out=ri)


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
    #: ``~mask3d`` shared from its owner (``CGridMetrics.stack_masks``), set before the first factor.
    _dry: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def _geometry(self) -> Tuple[np.ndarray, ...]:
        """dz_k dzi_k above and dz_{k+1} dzi_k below interface k; dry
        interface pairs and dry cells (None without a mask)."""
        dzi = 0.5 * (self.dz[:-1] + self.dz[1:])
        m = self.mask3d
        dry = (None, None) if m is None else (~(m[:-1] & m[1:]), ~m if self._dry is None else self._dry)
        return (self.dz[:-1] * dzi, self.dz[1:] * dzi) + dry

    def factor(self, kappa: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lower, denom, cp) of the forward sweep for the (nlev-1, ...)
        interface diffusivities; flux coupling dt kappa_k / (dz_k dzi_k).

        ``dt`` is taken as a Python float, so dt kappa rounds in kappa's
        dtype whatever the type of ``dt``."""
        dt = float(dt)
        if not 0.0 < dt < np.inf:
            raise ValueError("dt must be positive and finite")
        nlev = self.dz.shape[0]
        if kappa.shape[0] != nlev - 1:
            raise ValueError("kappa must live on the nlev-1 interior interfaces")
        _one_dtype("ColumnDiffusion.factor", kappa, self.dz)
        above, below, dry, _ = self._geometry
        lower, denom, cp = (np.empty((nlev,) + kappa.shape[1:], kappa.dtype) for _ in range(3))
        dtk = np.multiply(kappa, dt, out=lower[1:])  # dt kappa, zero across a dry pair
        if dry is not None:
            np.copyto(dtk, 0.0, where=dry)
        levels = (-1,) + (1,) * (dtk.ndim - 1)
        np.divide(dtk, above.reshape(levels), out=cp[:-1])  # upper, held in cp
        dtk /= below.reshape(levels)
        lower[0] = cp[-1] = 0.0  # nothing above the first level or below the last
        np.add(lower, 1.0, out=denom)
        denom += cp
        cp[0] /= denom[0]
        row = np.empty_like(cp[0])
        for k in range(1, nlev):
            np.multiply(lower[k], cp[k - 1], out=row)
            denom[k] -= row
            cp[k] /= denom[k]
        return lower, denom, cp

    def solve(self, factors: Tuple[np.ndarray, ...], field: np.ndarray) -> np.ndarray:
        """One right-hand side, in the factors' dtype: the (nlev, ...) field
        after the implicit step."""
        lower, denom, cp = factors
        _one_dtype("ColumnDiffusion.solve", field, denom)
        out = np.empty_like(field)
        np.divide(field[0], denom[0], out=out[0, ...])  # row views, 0-d for one column
        for k in range(1, len(out)):
            row = out[k, ...]
            np.multiply(lower[k], out[k - 1], out=row)
            row += field[k]
            row /= denom[k]
        row = np.empty_like(out[0, ...])
        for k in range(len(out) - 2, -1, -1):
            np.multiply(cp[k], out[k + 1], out=row)
            out[k, ...] += row
        if self.mask3d is not None:
            np.copyto(out, field, where=self._geometry[3])
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
