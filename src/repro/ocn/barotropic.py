"""Barotropic (free-surface) solver: the 2 s-substep engine of LICOM.

Forward-backward time stepping of the depth-integrated shallow-water
system on the tripolar C-grid:

    eta^{n+1} = eta^n - dt * div( H u^n )
    u^{n+1}   = u^n + dt * ( -g d(eta^{n+1})/dx + f v - r u + taux/(rho H) )
    v^{n+1}   = v^n + dt * ( -g d(eta^{n+1})/dy - f u - r v + tauy/(rho H) )

Updating the pressure-gradient with the *new* eta (forward-backward) is
what lets LICOM-class models run the barotropic mode at CFL ~ 1 without
subcycling instability.  Volume is conserved to round-off (flux form +
closed/masked boundaries).  The stabilization diagnostic is one global
reduction, :meth:`BarotropicSolver.norm`: the solver-norm allreduce the
machine model charges per 2 s step, computed only where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..utils.units import GRAVITY, RHO_OCEAN
from .metrics import CGridMetrics, CoriolisRotation, divergence_c, grad_x, grad_y
from .mixing import _one_dtype

__all__ = ["BarotropicState", "BarotropicSolver"]


@dataclass
class BarotropicState:
    """Free-surface height and depth-mean velocities (C-grid faces)."""

    eta: np.ndarray   # (nlat, nlon) m
    u: np.ndarray     # (nlat, nlon) m/s, east faces
    v: np.ndarray     # (nlat, nlon) m/s, north faces

    def copy(self) -> "BarotropicState":
        return BarotropicState(self.eta.copy(), self.u.copy(), self.v.copy())

    @staticmethod
    def zeros(shape: Tuple[int, int]) -> "BarotropicState":
        return BarotropicState(
            np.zeros(shape), np.zeros(shape), np.zeros(shape)
        )


@dataclass
class BarotropicSolver:
    """Forward-backward free-surface stepper.

    Parameters
    ----------
    metrics:
        C-grid metrics and masks.
    depth:
        Resting ocean depth at centers (m), zero on land.
    drag:
        Linear bottom drag (1/s).
    """

    metrics: CGridMetrics
    depth: np.ndarray
    drag: float = 1.0e-6
    h_u: np.ndarray = field(init=False)
    h_v: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        m = self.metrics
        if self.depth.shape != m.shape:
            raise ValueError("depth must match the grid shape")
        # Face depths: minimum of adjacent columns (no flow through sills
        # shallower than either side's bathymetry).
        d = self.depth
        self.h_u = np.where(m.mask_u, np.minimum(d, np.roll(d, -1, axis=-1)), 0.0)
        self.h_v = np.where(m.mask_v, np.minimum(d, np.concatenate((d[1:], d[-1:]))), 0.0)
        # Frozen per solver; stress is spread over at least 1 m of water.
        self._hu_stress = RHO_OCEAN * np.maximum(self.h_u, 1.0)
        self._hv_stress = RHO_OCEAN * np.maximum(self.h_v, 1.0)
        self._area_sum = np.sum(m.area, dtype=np.float64)
        self.rotation = CoriolisRotation(m)

    # -- stepping ------------------------------------------------------------

    def wind_acceleration(self, taux: Optional[np.ndarray], tauy: Optional[np.ndarray]) -> Tuple:
        """The (u, v) accelerations tau / (rho H) on the open faces, None for an
        absent stress: one pair serves every substep under the same stresses."""
        m = self.metrics
        return (None if taux is None else np.where(m.mask_u, taux / self._hu_stress, 0.0),
                None if tauy is None else np.where(m.mask_v, tauy / self._hv_stress, 0.0))

    def step(self, state: BarotropicState, dt: float, wind: Tuple = (None, None)) -> BarotropicState:
        """One forward-backward substep under the accelerations ``wind``
        (:meth:`wind_acceleration`): the new state."""
        m = self.metrics
        eta, u, v = state.eta, state.u, state.v
        _one_dtype("BarotropicSolver.step", eta, u, v, self.h_u, *(a for a in wind if a is not None))
        dt = float(dt)
        flux_u = np.multiply(u, self.h_u)
        flux_u *= m.ly_east
        flux_v = np.multiply(v, self.h_v)
        flux_v *= m.lx_north
        eta_new = divergence_c(m, flux_u, flux_v)
        eta_new *= dt
        np.subtract(eta, eta_new, out=eta_new)
        np.copyto(eta_new, 0.0, where=m.closed[0])

        star = []
        for grad, vel, accel in ((grad_x, u, wind[0]), (grad_y, v, wind[1])):
            d = grad(m, eta_new)
            d *= -GRAVITY
            d -= np.multiply(self.drag, vel)
            if accel is not None:
                d += accel
            d *= dt
            star.append(np.add(vel, d, out=d))
        u_new, v_new = self.rotation(*star, dt)
        np.copyto(u_new, 0.0, where=m.closed[1])
        np.copyto(v_new, 0.0, where=m.closed[2])
        return BarotropicState(eta_new, u_new, v_new)

    def norm(self, state: BarotropicState) -> float:
        """The stabilization diagnostic: area-weighted RMS of eta over the
        whole grid, summed in fp64 (the allreduce the paper's solver performs
        every barotropic substep)."""
        area = self.metrics.area
        return float(np.sqrt(np.sum(area * state.eta**2, dtype=np.float64) / self._area_sum))

    def max_stable_dt(self, cfl: float = 0.7) -> float:
        """Gravity-wave limit on the open faces."""
        m = self.metrics
        c = np.sqrt(GRAVITY * np.maximum(self.depth, 1.0))
        dx_min = min(
            float(m.dxu[m.mask_u].min()) if m.mask_u.any() else np.inf,
            float(m.dyv[m.mask_v].min()) if m.mask_v.any() else np.inf,
        )
        return cfl * dx_min / float(c.max())

    # -- diagnostics (accumulated in fp64 whatever the state's dtype) -------------

    def total_volume(self, state: BarotropicState) -> float:
        """Free-surface volume anomaly (conserved to round-off)."""
        m = self.metrics
        return float(np.sum(m.area[m.mask_c] * state.eta[m.mask_c].astype(np.float64, copy=False)))

    def kinetic_energy(self, state: BarotropicState) -> float:
        m = self.metrics
        ke_u = 0.5 * self.h_u * state.u.astype(np.float64, copy=False) ** 2
        ke_v = 0.5 * self.h_v * state.v.astype(np.float64, copy=False) ** 2
        return float(np.sum(m.area * (ke_u + ke_v)))
