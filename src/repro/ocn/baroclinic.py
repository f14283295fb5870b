"""Baroclinic (20 s-substep) dynamics: 3-D momentum over the level stack.

The reduced baroclinic system solved here keeps the terms that set the
computational and physical structure of LICOM's baroclinic mode:

* pressure gradient from the hydrostatic integral of the density anomaly
  (linear equation of state),
* semi-implicit Coriolis (same rotation as the barotropic mode),
* implicit vertical friction with the Canuto-like mixing coefficient,
* surface wind-stress and linear bottom-drag boundary conditions,
* horizontal Laplacian friction for grid-scale noise.

Momentum advection is omitted (documented simplification; the tracer
module carries the advective transport that the coupled experiments
diagnose).  All fields are (nlev, nlat, nlon), level 0 at the surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..utils.units import GRAVITY, RHO_OCEAN
from .metrics import CGridMetrics, CoriolisRotation, grad_x, grad_y, level_slabs
from .mixing import ColumnDiffusion, MixingParams, _one_dtype, column_kappa

__all__ = ["linear_eos", "BaroclinicSolver"]

RHO_ALPHA = 2.0e-4   # thermal expansion (1/K)
RHO_BETA = 7.6e-4    # haline contraction (1/psu)
T_REF = 10.0         # deg C
S_REF = 35.0         # psu


def linear_eos(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Density (kg/m^3) from the linear equation of state."""
    return RHO_OCEAN * (1.0 - RHO_ALPHA * (t - T_REF) + RHO_BETA * (s - S_REF))


@dataclass
class BaroclinicSolver:
    """Level-stack momentum stepper on the tripolar C-grid."""

    metrics: CGridMetrics
    mask3d: np.ndarray          # (nlev, nlat, nlon) wet mask
    dz: np.ndarray              # (nlev,) layer thicknesses, m
    horizontal_viscosity: float = 1.0e4
    # Rayleigh friction on every level (1/s): the equilibration mechanism
    # standing in for the omitted momentum advection (~1.2-day timescale).
    bottom_drag: float = 1.0e-5
    mixing: MixingParams = field(default_factory=MixingParams)

    def __post_init__(self) -> None:
        self.mask_u3, self.mask_v3 = self.metrics.face_masks(self.mask3d, self.dz)
        self.rotation = CoriolisRotation(self.metrics)
        # u and v share Ri/kappa but not the mask: one factorisation each.
        self.friction_u = ColumnDiffusion(self.dz, self.mask_u3)
        self.friction_v = ColumnDiffusion(self.dz, self.mask_v3)
        self.friction_u._dry, self.friction_v._dry = self.metrics.stack_masks(self.mask3d)[3]

    # -- pieces ---------------------------------------------------------------

    def density_pressure(self, t: np.ndarray, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(rho, p): density and the hydrostatic pressure anomaly (Pa) at
        level centers, p_k = g * (sum of anomalies above + half of own
        layer), as a running sum over levels (the adds of ``np.cumsum``)."""
        rho, p = linear_eos(t, s), np.empty_like(t)
        for k in range(t.shape[0]):
            rho_anom = rho[k] - RHO_OCEAN
            weight = rho_anom * self.dz[k]
            cum = cum + weight if k else weight
            p[k] = GRAVITY * (cum - 0.5 * rho_anom * self.dz[k])
        return rho, p

    def pressure(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Hydrostatic pressure anomaly (Pa) at level centers."""
        return self.density_pressure(t, s)[1]

    def step(
        self,
        u: np.ndarray,
        v: np.ndarray,
        t: np.ndarray,
        s: np.ndarray,
        dt: float,
        taux: Optional[np.ndarray] = None,
        tauy: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance (u, v) one baroclinic substep; returns new (u, v).  The
        horizontal phases run per level slab on u and v stacked (2, levels,
        nlat, nlon)."""
        _one_dtype("BaroclinicSolver.step", u, v, t, s, self.dz)
        dt = float(dt)
        m = self.metrics
        rho, p = self.density_pressure(t, s)
        # Surface stress enters the top layer.
        stress = [None if tau is None else np.where(mask, tau / (RHO_OCEAN * self.dz[0]), 0.0)
                  for tau, mask in ((taux, m.mask_u), (tauy, m.mask_v))]
        closed = m.stack_masks(self.mask3d)[3]
        u_new, v_new = np.empty_like(u), np.empty_like(v)
        for sl in level_slabs(u.shape):
            uv = np.stack((u[sl], v[sl]))
            # Pressure-gradient acceleration + horizontal Laplacian friction.
            duv = np.empty_like(uv)
            grad_x(m, p[sl], out=duv[0])
            grad_y(m, p[sl], out=duv[1])
            np.negative(duv, out=duv)
            duv /= RHO_OCEAN
            lap = m.laplacian(uv, closed[:, sl], 4.0)
            np.copyto(lap, 0.0, where=closed[:, sl])
            lap *= self.horizontal_viscosity
            duv += lap
            for k, a in enumerate(stress):
                if sl.start == 0 and a is not None:
                    duv[k, 0] += a
            # Rayleigh drag every level.
            duv -= np.multiply(self.bottom_drag, uv, out=lap)
            duv *= dt
            np.add(uv, duv, out=duv)
            self.rotation(duv[0], duv[1], dt, out=(u_new[sl], v_new[sl]))
        del p, uv, duv, lap  # not held through the column phase

        # Implicit vertical friction with the Canuto-like coefficient.
        kappa = column_kappa(rho, u_new, v_new, self.dz, self.mixing)
        u_new = self.friction_u.solve(self.friction_u.factor(kappa, dt), u_new)
        v_new = self.friction_v.solve(self.friction_v.factor(kappa, dt), v_new)
        np.copyto(u_new, 0.0, where=closed[0])
        np.copyto(v_new, 0.0, where=closed[1])
        return u_new, v_new
