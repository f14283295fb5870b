"""Atmosphere physics kernels on the performance-portability layer.

The §4 portability contract says *every* component's hot loops run
through the same Kokkos-style dispatch; this module ports the
conventional-physics schemes from ad-hoc whole-array numpy onto the one
hash-dispatched launch path, exactly as ``ocn/kernels.py`` does for
LICOM.  The column dimension is the parallel axis: each kernel owns a
chunk of columns (what a CPE or a GPU thread block would own) and is
bit-identical to the whole-array reference because columns are
independent —

* :func:`radiation_kernel` — gray radiation per column chunk (the water
  path integral is per-column, so chunking commutes with it);
* :func:`surface_flux_kernel` — bulk surface-layer fluxes (pointwise in
  the lowest level);
* :func:`convective_kernel` — pairwise convective adjustment; the sweep
  loop's early exit is per-chunk, which is safe because extra sweeps on
  an already-stable chunk are exact no-ops;
* :func:`saturation_kernel` — Tetens saturation humidity as an MDRange
  over (columns, levels), the tiled two-dimensional launch;
* :func:`condensation_kernel` — large-scale condensation and the
  random-overlap cloud diagnosis per column chunk.

Every kernel joins the process-wide :data:`repro.pp.KERNELS` table once,
here, at import; each host-side ``run_*`` wrapper takes the caller's
:class:`~repro.component.ComponentContext` and launches by hash through
it, so launches count in (and surface through) that context's metrics.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..component import ComponentContext
from ..pp import MDRangePolicy, kernel
from ..utils.units import CP_AIR, GRAVITY, LATENT_HEAT_VAPORIZATION, STEFAN_BOLTZMANN
from .columns import ColumnState, saturation_specific_humidity

__all__ = [
    "radiation_kernel",
    "surface_flux_kernel",
    "convective_kernel",
    "saturation_kernel",
    "condensation_kernel",
    "run_radiation",
    "run_surface_layer",
    "run_convective_adjustment",
    "run_condensation",
]

SOLAR_CONSTANT = 1361.0  # W/m^2


@kernel("atm.radiation")
def radiation_kernel(
    idx: np.ndarray,
    gsw: np.ndarray,
    glw: np.ndarray,
    dt_rad: np.ndarray,
    t: np.ndarray,
    q: np.ndarray,
    p: np.ndarray,
    coszr: np.ndarray,
    cloud_fraction: np.ndarray,
    albedo: float,
    sw_absorptivity: float,
    eps_clear: float,
    eps_cloud: float,
    lw_cooling_rate: float,
) -> None:
    """Gray radiation for one chunk of columns (writes gsw/glw/dt_rad)."""
    colq = np.trapezoid(q[idx], p, axis=1) / GRAVITY
    wv_factor = np.clip(colq / 30.0, 0.0, 1.0)

    cz = np.clip(coszr[idx], 0.0, 1.0)
    cf = cloud_fraction[idx]
    transmission = 1.0 - sw_absorptivity - 0.25 * cf
    gsw[idx] = SOLAR_CONSTANT * cz * (1.0 - albedo) * np.clip(transmission, 0.0, 1.0)

    eps = eps_clear + (eps_cloud - eps_clear) * cf
    eps = eps * (0.8 + 0.2 * wv_factor)
    glw[idx] = eps * STEFAN_BOLTZMANN * t[idx, -1] ** 4

    sw_heat = (
        SOLAR_CONSTANT * cz[:, None] * sw_absorptivity * (p / p[-1])[None, :] ** 0.5
    )
    sw_heat = sw_heat / (CP_AIR * 8000.0)  # W/m2 over an ~800 hPa airmass
    lw_cool = lw_cooling_rate * (t[idx] / 288.0) ** 4
    dt_rad[idx] = sw_heat - lw_cool


@kernel("atm.surface_layer")
def surface_flux_kernel(
    idx: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    dt: np.ndarray,
    dq: np.ndarray,
    shflx: np.ndarray,
    lhflx: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    t: np.ndarray,
    q: np.ndarray,
    tskin: np.ndarray,
    p_sfc: float,
    drag_coefficient: float,
    exchange_wind_min: float,
) -> None:
    """Bulk surface-layer fluxes for one chunk of columns."""
    wind = np.sqrt(u[idx, -1] ** 2 + v[idx, -1] ** 2)
    wind = np.maximum(wind, exchange_wind_min)
    rho_cd_w = 1.2 * drag_coefficient * wind

    shflx[idx] = rho_cd_w * CP_AIR * (tskin[idx] - t[idx, -1])
    qsat_skin = saturation_specific_humidity(
        tskin[idx], np.full_like(tskin[idx], p_sfc)
    )
    lhflx[idx] = rho_cd_w * LATENT_HEAT_VAPORIZATION * np.maximum(
        qsat_skin - q[idx, -1], 0.0
    ) * 0.7  # ocean-ish evaporation efficiency

    # Spread the flux over the lowest model layer (~500 m of air).
    layer_mass = 1.2 * 500.0
    du[idx, -1] = -rho_cd_w * u[idx, -1] / layer_mass
    dv[idx, -1] = -rho_cd_w * v[idx, -1] / layer_mass
    dt[idx, -1] = shflx[idx] / (CP_AIR * layer_mass)
    dq[idx, -1] = lhflx[idx] / (LATENT_HEAT_VAPORIZATION * layer_mass)


@kernel("atm.convective_adjustment")
def convective_kernel(
    idx: np.ndarray,
    dT: np.ndarray,
    dQ: np.ndarray,
    precip: np.ndarray,
    t0: np.ndarray,
    q0: np.ndarray,
    p: np.ndarray,
    dz: np.ndarray,
    dt_s: float,
    critical_lapse: float,
    adjust_sweeps: int,
) -> None:
    """Pairwise convective adjustment for one chunk of columns.

    The sweep loop may exit as soon as *this chunk* is stable: further
    sweeps would add/subtract exact zeros, so the early exit does not
    change the result relative to a global stability test.
    """
    t = t0[idx].copy()
    for _ in range(adjust_sweeps):
        lapse = (t[:, 1:] - t[:, :-1]) / dz[None, :]
        unstable = lapse > critical_lapse
        if not np.any(unstable):
            break
        excess = (lapse - critical_lapse) * dz[None, :]
        adj = 0.25 * np.where(unstable, excess, 0.0)
        # Move heat upward: cool lower level, warm upper level.
        t_new = t.copy()
        t_new[:, 1:] -= adj
        t_new[:, :-1] += adj
        t = t_new

    dT_c = (t - t0[idx]) / dt_s
    dT[idx] = dT_c
    # Moisture: where convection fired, detrain toward 80 % RH.
    fired = np.abs(dT_c).sum(axis=1) > 0
    qsat = saturation_specific_humidity(t, p[None, :])
    q_target = np.minimum(q0[idx], 0.8 * qsat)
    dQ_c = np.where(fired[:, None], (q_target - q0[idx]) / max(dt_s, 1.0), 0.0)
    dQ[idx] = dQ_c
    # Removed moisture rains out (column integral, positive down).
    precip[idx] = np.maximum(-np.trapezoid(dQ_c, p, axis=1) / GRAVITY, 0.0)


@kernel("atm.condensation")
def saturation_kernel(
    ci: np.ndarray,
    ki: np.ndarray,
    qsat: np.ndarray,
    t: np.ndarray,
    p: np.ndarray,
) -> None:
    """Tetens saturation humidity on one (columns x levels) tile."""
    sl = np.ix_(ci, ki)
    qsat[sl] = saturation_specific_humidity(t[sl], p[ki][None, :])


@kernel("atm.condensation")
def condensation_kernel(
    idx: np.ndarray,
    dT: np.ndarray,
    dQ: np.ndarray,
    precip: np.ndarray,
    cloud: np.ndarray,
    q: np.ndarray,
    qsat: np.ndarray,
    p: np.ndarray,
    condensation_timescale: float,
    cloud_rh_threshold: float,
) -> None:
    """Large-scale condensation + cloud diagnosis for one column chunk."""
    excess = np.maximum(q[idx] - qsat[idx], 0.0)
    rate = excess / condensation_timescale
    dQ_c = -rate
    dQ[idx] = dQ_c
    dT[idx] = (LATENT_HEAT_VAPORIZATION / CP_AIR) * rate
    precip[idx] = np.maximum(-np.trapezoid(dQ_c, p, axis=1) / GRAVITY, 0.0)
    rh = q[idx] / np.maximum(qsat[idx], 1e-10)
    cloudy = np.clip(
        (rh - cloud_rh_threshold) / (1.0 - cloud_rh_threshold), 0.0, 1.0
    )
    # Total cloud fraction: random-overlap of layer clouds.
    cloud[idx] = 1.0 - np.prod(1.0 - 0.5 * cloudy, axis=1)


# -- host-callable wrappers (launch by hash through the caller's context) --


def run_radiation(
    ctx: ComponentContext,
    state: ColumnState,
    cloud_fraction: np.ndarray,
    albedo: float,
    sw_absorptivity: float,
    eps_clear: float,
    eps_cloud: float,
    lw_cooling_rate: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gsw, glw, dT_rad) via the portable radiation kernel."""
    gsw = np.zeros(state.ncol)
    glw = np.zeros(state.ncol)
    dt_rad = np.zeros_like(state.t)
    ctx.launch(
        radiation_kernel.handle, state.ncol,
        gsw, glw, dt_rad, state.t, state.q, state.p, state.coszr,
        cloud_fraction, albedo, sw_absorptivity, eps_clear, eps_cloud,
        lw_cooling_rate,
    )
    return gsw, glw, dt_rad


def run_surface_layer(
    ctx: ComponentContext,
    state: ColumnState,
    drag_coefficient: float,
    exchange_wind_min: float,
) -> Tuple[np.ndarray, ...]:
    """(dU, dV, dT, dQ, shflx, lhflx) via the portable surface kernel."""
    du = np.zeros_like(state.u)
    dv = np.zeros_like(state.v)
    dt = np.zeros_like(state.t)
    dq = np.zeros_like(state.q)
    shflx = np.zeros(state.ncol)
    lhflx = np.zeros(state.ncol)
    ctx.launch(
        surface_flux_kernel.handle, state.ncol,
        du, dv, dt, dq, shflx, lhflx,
        state.u, state.v, state.t, state.q, state.tskin,
        float(state.p[-1]), drag_coefficient, exchange_wind_min,
    )
    return du, dv, dt, dq, shflx, lhflx


def run_convective_adjustment(
    ctx: ComponentContext,
    state: ColumnState,
    dt_s: float,
    critical_lapse: float,
    adjust_sweeps: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dT, dQ, precip) via the portable convective-adjustment kernel."""
    p = state.p
    z = 7500.0 * np.log(p[-1] / np.maximum(p, 1.0))  # heights, sfc-relative
    dz = z[:-1] - z[1:]  # positive: level k is above k+1
    dT = np.zeros_like(state.t)
    dQ = np.zeros_like(state.q)
    precip = np.zeros(state.ncol)
    ctx.launch(
        convective_kernel.handle, state.ncol,
        dT, dQ, precip, state.t, state.q, p, dz,
        dt_s, critical_lapse, adjust_sweeps,
    )
    return dT, dQ, precip


def run_condensation(
    ctx: ComponentContext,
    state: ColumnState,
    condensation_timescale: float,
    cloud_rh_threshold: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(dT, dQ, precip, cloud) via the tiled saturation + condensation
    kernels.  Saturation humidity runs as an MDRange over (ncol, nlev) —
    the two-dimensional launch, tiled to the space's lanes — then the
    per-column condensation chunk kernel consumes it."""
    qsat = np.zeros_like(state.q)
    policy = MDRangePolicy((state.ncol, state.nlev))
    ctx.launch(saturation_kernel.handle, policy, qsat, state.t, state.p)
    dT = np.zeros_like(state.t)
    dQ = np.zeros_like(state.q)
    precip = np.zeros(state.ncol)
    cloud = np.zeros(state.ncol)
    ctx.launch(
        condensation_kernel.handle, state.ncol,
        dT, dQ, precip, cloud, state.q, qsat, state.p,
        condensation_timescale, cloud_rh_threshold,
    )
    return dT, dQ, precip, cloud
