"""Shallow-water dynamical core on the icosahedral C-grid (TRSK scheme).

This is the GRIST-family dycore reduced to a single layer: vector-invariant
shallow-water equations

    dh/dt = -div(h u)
    du/dt = q_e F_perp_e - grad( g (h + b) + K )_e  (+ optional diffusion)

with thickness ``h`` at cells, normal velocity ``u`` at edges, and PV ``q``
at dual vertices, advanced with RK4 (default) or forward-backward substeps.
The discrete operators come from :mod:`repro.grids.trsk`, so mass is
conserved to round-off and the PV (Coriolis) term is exactly
kinetic-energy-neutral — the invariants the test suite pins down, plus the
Williamson test-case-2 steady geostrophic flow whose error decays with
resolution.

Williamson et al. (1992) TC2 and TC5 (flow over an isolated mountain) are
provided as initial conditions; TC5-like states seed the typhoon and
coupled experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ..grids import trsk
from ..grids.icos import IcosahedralGrid, map_entries, scatter_map
from ..utils.units import EARTH_OMEGA, GRAVITY

__all__ = ["SWEState", "ShallowWaterDycore", "williamson_tc2", "isolated_mountain"]


@dataclass
class SWEState:
    """Prognostic shallow-water state."""

    h: np.ndarray  # (n_cells,) fluid thickness, m
    u: np.ndarray  # (n_edges,) normal velocity, m/s

    def copy(self) -> "SWEState":
        return SWEState(self.h.copy(), self.u.copy())


def williamson_tc2(
    grid: IcosahedralGrid,
    u0: float = 2.0 * math.pi * 6.371e6 / (12.0 * 86400.0),
    h0: float = 2.94e4 / GRAVITY,
) -> SWEState:
    """Williamson test case 2: steady zonal geostrophic flow.

    u = u0 cos(lat);  g h = g h0 - (R Omega u0 + u0^2/2) sin^2(lat).
    An exact steady solution of the continuous equations: discrete error
    growth measures dycore accuracy.
    """
    lat_c = grid.lat_cell
    coeff = grid.radius * EARTH_OMEGA * u0 + 0.5 * u0 * u0
    h = h0 - (coeff / GRAVITY) * np.sin(lat_c) ** 2

    def vf(xyz):
        # Zonal flow u0*cos(lat) = solid-body rotation about z.
        return (u0 / grid.radius) * np.cross([0.0, 0.0, 1.0], xyz) * grid.radius

    u = grid.project_to_edges(vf)
    return SWEState(h=h, u=u)


def isolated_mountain(
    grid: IcosahedralGrid,
    u0: float = 20.0,
    h0: float = 5960.0,
    mountain_height: float = 2000.0,
    center_lon: float = -math.pi / 2,
    center_lat: float = math.pi / 6,
    radius_rad: float = math.pi / 9,
) -> Tuple[SWEState, np.ndarray]:
    """Williamson TC5: zonal flow over an isolated conical mountain.

    Returns the state and the terrain field ``b`` (m).
    """
    lat_c = grid.lat_cell
    lon_c = grid.lon_cell
    coeff = grid.radius * EARTH_OMEGA * u0 + 0.5 * u0 * u0
    h_surf = h0 - (coeff / GRAVITY) * np.sin(lat_c) ** 2

    r = np.sqrt(
        np.minimum(
            radius_rad**2,
            (lon_c - center_lon) ** 2 + (lat_c - center_lat) ** 2,
        )
    )
    b = mountain_height * (1.0 - r / radius_rad)

    def vf(xyz):
        return (u0 / grid.radius) * np.cross([0.0, 0.0, 1.0], xyz) * grid.radius

    u = grid.project_to_edges(vf)
    return SWEState(h=h_surf - b, u=u), b


class TendencyPlan:
    """The shallow-water right-hand side of one grid as one frozen plan.

    The state is one vector ``y = [h | u]``.  All six scatters of a
    tendency — div(h_e u), K, div(u), curl(u), the kite-averaged h at dual
    vertices and the terms of tangential(h_e u) — are row blocks of ONE
    frozen map applied to ``x = [h | u | h_e u | le de u u / 4]``, and
    every two-point edge difference and average is one stacked gather of
    its result.  Each value comes from the same float operations, in the
    same order, as the operator-by-operator :mod:`repro.grids.trsk`
    composition

        dh = -div(h_e u)
        du = q_e tangential(h_e u) - grad(g (h + b) + K) + nu lap(u)

    so the result is bitwise that composition's.  ``x`` is scratch owned
    by the plan: one plan serves one caller at a time.
    """

    def __init__(self, grid: IcosahedralGrid, f_dual: np.ndarray) -> None:
        tb = grid.trsk_tables
        nc, ne, nd = grid.n_cells, grid.n_edges, grid.n_dual
        self.n_cells, self.n_dual, self.f_dual, self.ke_weight = nc, nd, f_dual, tb.ke_weight
        self.x = np.zeros(nc + 3 * ne)
        u0, flux0, ke0 = nc, nc + ne, nc + 2 * ne
        # Rows: div(h_e u) | K (-> Bernoulli) | div(u) | zeta | h at duals (-> q)
        # | the terms of tangential(h_e u).
        bern0, divu0, zeta0, q0 = nc, 2 * nc, 3 * nc, 3 * nc + nd
        self.tan0 = 3 * nc + 2 * nd
        self.scatter = scatter_map(
            (self.tan0 + tb.tangential.shape[0], len(self.x)),
            map_entries(tb.div, 0, flux0),
            map_entries(tb.ke, bern0, ke0),
            map_entries(tb.div, divu0, u0),
            map_entries(tb.curl, zeta0, u0),
            map_entries(tb.kite, q0, 0),
            map_entries(tb.tangential, self.tan0, flux0),
        )
        self.area = np.concatenate([grid.area_cell] * 3 + [grid.area_dual, tb.kite_sum])
        self.cells = np.stack([tb.c1, tb.c2])
        # Edge ends of the scatter results: three differences, then q at t1, t2.
        self.ends = np.stack([
            bern0 + tb.c2, divu0 + tb.c2, zeta0 + tb.t2,
            bern0 + tb.c1, divu0 + tb.c1, zeta0 + tb.t1,
            q0 + tb.t1, q0 + tb.t2,
        ])
        self.spacing = np.stack([grid.de, grid.de, grid.le])

    def __call__(self, y: np.ndarray, terrain: np.ndarray, diffusion: float) -> np.ndarray:
        nc, nd, x = self.n_cells, self.n_dual, self.x
        n = len(y)
        h, u = y[:nc], y[nc:]
        flux, kin = x[n : 2 * n - nc], x[2 * n - nc :]
        x[:n] = y
        ends = np.take(h, self.cells)
        np.add(ends[0], ends[1], out=flux)
        flux *= 0.5  # h_e
        flux *= u
        np.multiply(self.ke_weight, u, out=kin)
        kin *= u

        out = self.scatter @ x
        tan = out[self.tan0 :].reshape(-1, len(u))
        out = out[: self.tan0]
        out /= self.area
        bern, zeta, q = out[nc : 2 * nc], out[3 * nc : 3 * nc + nd], out[3 * nc + nd :]
        bern += GRAVITY * (h + terrain)
        np.maximum(q, 1e-8, out=q)
        np.divide(zeta + self.f_dual, q, out=q)

        ends = np.take(out, self.ends)
        grads = ends[:3] - ends[3:6]
        grads /= self.spacing  # grad(bern), grad(div u), (zeta_t2 - zeta_t1) / le
        q_e = ends[6] + ends[7]
        q_e *= 0.5

        k = np.empty(n)
        np.negative(out[:nc], out=k[:nc])
        f_perp = trsk.pairwise_finish(tan[:4], tan[4:])
        du = np.multiply(q_e, f_perp, out=k[nc:])
        du -= grads[0]
        if diffusion > 0.0:
            lap = grads[1] - grads[2]
            lap *= diffusion
            du += lap
        return k


@dataclass
class ShallowWaterDycore:
    """TRSK shallow-water stepper.

    Parameters
    ----------
    grid:
        The icosahedral mesh.
    terrain:
        Optional bottom topography ``b`` at cells (m).
    diffusion:
        Del^2 viscosity coefficient (m^2/s); 0 disables it.  The dycore's
        invariant tests run with 0; long runs use a small value for the
        grid-scale noise any C-grid scheme accumulates.
    """

    grid: IcosahedralGrid
    terrain: Optional[np.ndarray] = None
    diffusion: float = 0.0
    f_dual: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.f_dual = 2.0 * EARTH_OMEGA * np.sin(self.grid.lat_dual)
        if self.terrain is None:
            self.terrain = np.zeros(self.grid.n_cells)
        if len(self.terrain) != self.grid.n_cells:
            raise ValueError("terrain must be a cell field")
        self._plan = TendencyPlan(self.grid, self.f_dual)

    # -- spatial tendencies -------------------------------------------------

    def _rhs(self, y: np.ndarray) -> np.ndarray:
        return self._plan(y, self.terrain, self.diffusion)

    def tendencies(self, state: SWEState) -> SWEState:
        """``(dh/dt, du/dt)`` of ``state`` (see :class:`TendencyPlan`)."""
        k = self._rhs(np.concatenate((state.h, state.u)))
        nc = self.grid.n_cells
        return SWEState(h=k[:nc], u=k[nc:])

    # -- time stepping --------------------------------------------------------

    def step_rk4(self, state: SWEState, dt: float) -> SWEState:
        """Classical RK4 step (the accuracy-bearing integrator), on the
        stacked ``[h | u]`` vector: every stage operation is elementwise,
        so stacking changes no value."""
        y = np.concatenate((state.h, state.u))
        k1 = self._rhs(y)
        k2 = self._rhs(y + 0.5 * dt * k1)
        k3 = self._rhs(y + 0.5 * dt * k2)
        k4 = self._rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        nc = self.grid.n_cells
        return SWEState(h=y[:nc], u=y[nc:])

    def max_stable_dt(self, state: SWEState, cfl: float = 0.5) -> float:
        """Gravity-wave CFL limit: dt <= cfl * min(de) / sqrt(g h_max)."""
        c = math.sqrt(GRAVITY * float(np.max(state.h + self.terrain)))
        umax = float(np.abs(state.u).max())
        return cfl * float(self.grid.de.min()) / max(c + umax, 1e-12)

    # -- invariants ------------------------------------------------------------

    def total_mass(self, state: SWEState) -> float:
        return float(np.sum(self.grid.area_cell * state.h))

    def total_energy(self, state: SWEState) -> float:
        """Kinetic + available potential energy (J/kg integrated over area)."""
        g = self.grid
        ke_cell = trsk.kinetic_energy_cell(g, state.u)
        h = state.h
        b = self.terrain
        pe = 0.5 * GRAVITY * (h + b) ** 2 - 0.5 * GRAVITY * b**2
        return float(np.sum(g.area_cell * (h * ke_cell + pe)))

    def total_enstrophy(self, state: SWEState) -> float:
        g = self.grid
        zeta = trsk.curl(g, state.u)
        h_dual = trsk.cell_to_dual(g, state.h)
        q = (zeta + self.f_dual) / np.maximum(h_dual, 1e-8)
        return float(np.sum(g.area_dual * 0.5 * h_dual * q * q))
