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
from .metrics import CGridMetrics, CoriolisRotation, grad_x, grad_y, level_slabs, neighbour_sum
from .mixing import ColumnDiffusion, MixingParams, column_kappa

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
        """Advance (u, v) one baroclinic substep; returns new (u, v)."""
        m = self.metrics
        rho, p = self.density_pressure(t, s)
        u_new, v_new = np.empty_like(u), np.empty_like(v)
        for sl in level_slabs(u.shape):
            # Pressure-gradient acceleration + horizontal Laplacian friction.
            du = -grad_x(m, p[sl]) / RHO_OCEAN
            dv = -grad_y(m, p[sl]) / RHO_OCEAN
            du += self.horizontal_viscosity * self._laplacian(u[sl], self.mask_u3[sl])
            dv += self.horizontal_viscosity * self._laplacian(v[sl], self.mask_v3[sl])
            # Surface stress enters the top layer; Rayleigh drag every level.
            if sl.start == 0 and taux is not None:
                du[0] += np.where(m.mask_u, taux / (RHO_OCEAN * self.dz[0]), 0.0)
            if sl.start == 0 and tauy is not None:
                dv[0] += np.where(m.mask_v, tauy / (RHO_OCEAN * self.dz[0]), 0.0)
            du -= self.bottom_drag * u[sl]
            dv -= self.bottom_drag * v[sl]
            u_new[sl], v_new[sl] = self.rotation(u[sl] + dt * du, v[sl] + dt * dv, dt)

        # Implicit vertical friction with the Canuto-like coefficient.
        kappa = column_kappa(rho, u_new, v_new, self.dz, self.mixing)
        u_new = self.friction_u.solve(self.friction_u.factor(kappa, dt), u_new)
        v_new = self.friction_v.solve(self.friction_v.factor(kappa, dt), v_new)
        return np.where(self.mask_u3, u_new, 0.0), np.where(self.mask_v3, v_new, 0.0)

    def _laplacian(self, f: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Masked 5-point Laplacian with metric scaling (per level)."""
        fm = np.where(mask, f, 0.0)
        lap = (neighbour_sum(fm) - 4.0 * fm) / self.metrics.lap_scale
        return np.where(mask, lap, 0.0)
