"""Tracer (T, S) transport: upwind advection + implicit vertical diffusion
+ surface forcing — the 20 s tracer substep of LICOM.

First-order upwind keeps tracers monotone (no spurious extrema — the
property the test suite pins), and the flux form conserves tracer content
exactly over the masked domain.  Vertical diffusion reuses the
Canuto-like coefficients from :mod:`repro.ocn.mixing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ..utils.units import CP_OCEAN, RHO_OCEAN
from .metrics import CGridMetrics, level_slabs, neighbour_sum, transport, upwind_faces
from .mixing import ColumnDiffusion, MixingParams, _one_dtype, column_kappa
from .baroclinic import linear_eos

__all__ = ["TracerSolver"]

SCHEMES = ("upwind", "muscl")


@dataclass
class TracerSolver:
    """Advection-diffusion stepper for level-stack tracers."""

    metrics: CGridMetrics
    mask3d: np.ndarray
    dz: np.ndarray
    horizontal_diffusivity: float = 5.0e2
    advection_scheme: str = "upwind"   # or "muscl" (2nd order, limited)
    mixing: MixingParams = field(default_factory=MixingParams)

    def __post_init__(self) -> None:
        if self.advection_scheme not in SCHEMES:
            raise ValueError("advection_scheme must be 'upwind' or 'muscl'")
        self.mask_u3, self.mask_v3 = self.metrics.face_masks(self.mask3d, self.dz)
        self.column = ColumnDiffusion(self.dz, self.mask3d)
        self.column._dry = self.metrics.stack_masks(self.mask3d)[2]

    # -- frozen tables (mask/grid only, built on first use) ---------------------

    @cached_property
    def vol(self) -> np.ndarray:
        """(nlev, nlat, nlon) cell volumes."""
        return self.metrics.area[None] * self.dz.reshape(-1, 1, 1)

    @cached_property
    def neigh(self) -> np.ndarray:
        """Wet four-neighbour count of every cell."""
        wet = self.mask3d.astype(self.dz.dtype)
        return neighbour_sum(wet, np.empty_like(wet))

    @staticmethod
    def _muscl_face(c: np.ndarray, vel: np.ndarray, axis: int) -> np.ndarray:
        """Minmod-limited second-order value at the face between cells i and
        i+1 along ``axis`` (-1: x, periodic; -2: y, clamped at the closed
        edges): the upwind cell plus half its limited slope, first order at
        extrema, which keeps the scheme essentially monotone."""
        n = c.shape[axis]
        at = (lambda i: i % n) if axis == -1 else (lambda i: np.clip(i, 0, n - 1))
        c_p1, c_m1, c_p2 = (np.take(c, at(np.arange(n) + k), axis) for k in (1, -1, 2))

        def minmod(a, b):
            return np.where(a * b > 0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)

        slope_i = minmod(c - c_m1, c_p1 - c)        # slope at cell i
        slope_p1 = minmod(c_p1 - c, c_p2 - c_p1)    # slope at cell i+1
        return np.where(vel > 0, c + 0.5 * slope_i, c_p1 - 0.5 * slope_p1)

    def advect(
        self, c: np.ndarray, u: np.ndarray, v: np.ndarray, dt: float,
        scheme: str = "upwind", levels: slice = slice(None),
    ) -> np.ndarray:
        """One flux-form advection step of tracer ``c`` by face velocities.

        ``scheme`` is ``"upwind"`` (first order, the LICOM default here) or
        ``"muscl"`` (second order with a minmod limiter — sharper fronts at
        the same conservation guarantees).  ``c`` holds the ``levels`` of the
        box, optionally stacked on a leading axis (T and S advect as one
        array); ``u``, ``v`` hold the same levels (every stencil is
        horizontal, so a slab of levels advects on its own).
        """
        if scheme not in SCHEMES:
            raise ValueError("scheme must be 'upwind' or 'muscl'")
        m = self.metrics
        dz = self.dz[levels].reshape(-1, 1, 1)
        if scheme == "upwind":
            faces = upwind_faces(c, u, v)
        else:
            faces = self._muscl_face(c, u, -1), self._muscl_face(c, v, -2)
        # A dry cell's faces are all closed: its divergence is +0.0 and it keeps c.
        return transport(c, faces, (u, v), ((m.ly_east, dz), (m.lx_north, dz)), dt, self.vol[levels],
                         tuple(self.metrics.stack_masks(self.mask3d)[3][:, levels]))

    def diffuse_horizontal(self, c: np.ndarray, dt: float, levels: slice = slice(None)) -> np.ndarray:
        """Masked explicit horizontal diffusion (small coefficient) of the
        ``levels`` of the box held by ``c`` (optionally stacked, as in
        :meth:`advect`)."""
        dry = self.metrics.stack_masks(self.mask3d)[2][levels]
        lap = self.metrics.laplacian(c, dry, self.neigh[levels])
        lap *= float(dt) * self.horizontal_diffusivity
        np.add(c, lap, out=lap)
        np.copyto(lap, c, where=dry)
        return lap

    def step(
        self,
        t: np.ndarray,
        s: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        dt: float,
        surface_heat_flux: Optional[np.ndarray] = None,   # W/m^2, positive down
        surface_fresh_flux: Optional[np.ndarray] = None,  # kg/m^2/s (P - E)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance (T, S) one tracer substep: T and S advect and diffuse as one
        (2, levels, nlat, nlon) stack per level slab and share one column
        factorisation."""
        _one_dtype("TracerSolver.step", t, s, u, v, self.dz)
        dt = float(dt)
        t_new, s_new = np.empty_like(t), np.empty_like(s)
        for sl in level_slabs(t.shape):
            adv = self.advect(np.stack((t[sl], s[sl])), u[sl], v[sl], dt, self.advection_scheme, sl)
            t_new[sl], s_new[sl] = self.diffuse_horizontal(adv, dt, sl)
        del adv  # neither it nor density and kappa are held through the column phase
        factors = self.column.factor(column_kappa(linear_eos(t_new, s_new), u, v, self.dz, self.mixing), dt)
        t_new = self.column.solve(factors, t_new)
        s_new = self.column.solve(factors, s_new)

        surf = self.mask3d[0]
        if surface_heat_flux is not None:
            dT = surface_heat_flux * dt / (RHO_OCEAN * CP_OCEAN * self.dz[0])
            np.add(t_new[0], dT, out=t_new[0], where=surf)
        if surface_fresh_flux is not None:
            # Freshwater dilutes salinity: dS = -S * F dt / (rho dz).
            dS = -s_new[0] * surface_fresh_flux * dt / (RHO_OCEAN * self.dz[0])
            np.add(s_new[0], dS, out=s_new[0], where=surf)
        return t_new, s_new

    # -- diagnostics ---------------------------------------------------------

    def content(self, c: np.ndarray) -> float:
        """Volume integral of a tracer over the wet domain, accumulated in
        fp64 (an fp32 product is exact there)."""
        return float(np.sum(np.where(self.mask3d, c.astype(np.float64, copy=False) * self.vol, 0.0)))
