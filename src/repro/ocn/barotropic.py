"""Barotropic (free-surface) solver: the 2 s-substep engine of LICOM.

Forward-backward time stepping of the depth-integrated shallow-water
system on the tripolar C-grid:

    eta^{n+1} = eta^n - dt * div( H u^n )
    u^{n+1}   = u^n + dt * ( -g d(eta^{n+1})/dx + f v - r u + taux/(rho H) )
    v^{n+1}   = v^n + dt * ( -g d(eta^{n+1})/dy - f u - r v + tauy/(rho H) )

Updating the pressure-gradient with the *new* eta (forward-backward) is
what lets LICOM-class models run the barotropic mode at CFL ~ 1 without
subcycling instability.  Volume is conserved to round-off (flux form +
closed/masked boundaries); the stabilization each substep includes one
global diagnostic reduction, matching the solver-norm allreduce the
machine model charges per 2 s step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..utils.units import GRAVITY, RHO_OCEAN
from .metrics import CGridMetrics, CoriolisRotation, divergence_c, grad_x, grad_y, shift_x, shift_y

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
        self.h_u = np.where(m.mask_u, np.minimum(d, shift_x(d, 1)), 0.0)
        self.h_v = np.where(m.mask_v, np.minimum(d, shift_y(d, 1)), 0.0)
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

    def step(
        self,
        state: BarotropicState,
        dt: float,
        wind: Tuple = (None, None),
    ) -> Tuple[BarotropicState, float]:
        """One forward-backward substep under the accelerations ``wind``
        (:meth:`wind_acceleration`); returns (new state, |eta| norm).

        The returned norm is the global stabilization diagnostic — the
        allreduce the paper's solver performs every barotropic substep.
        """
        m = self.metrics
        eta, u, v = state.eta, state.u, state.v
        au, av = wind

        flux_u = u * self.h_u * m.ly_east
        flux_v = v * self.h_v * m.lx_north
        eta_new = eta - dt * divergence_c(m, flux_u, flux_v)
        eta_new = np.where(m.mask_c, eta_new, 0.0)

        du = -GRAVITY * grad_x(m, eta_new) - self.drag * u
        dv = -GRAVITY * grad_y(m, eta_new) - self.drag * v
        if au is not None:
            du = du + au
        if av is not None:
            dv = dv + av

        u_new, v_new = self.rotation(u + dt * du, v + dt * dv, dt)
        u_new = np.where(m.mask_u, u_new, 0.0)
        v_new = np.where(m.mask_v, v_new, 0.0)
        norm = float(np.sqrt(np.sum(m.area * eta_new**2, dtype=np.float64) / self._area_sum))
        return BarotropicState(eta_new, u_new, v_new), norm

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
