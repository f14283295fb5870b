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

Fields are level-major ``(nlev, ncol)`` C-contiguous arrays: the column
axis, the parallel one, is unit-stride, as on a GPU or a CPE cluster.  A
chunk (or MDRange tile) is a contiguous range by
:meth:`~repro.pp.ExecutionSpace.chunks`' contract, so a kernel reads it as
the basic slice ``[:, lo:hi]`` — a view, not a gather — and writes through
it.  Elementwise operations give the same bits in any layout; a level
reduction keeps numpy's order over a contiguous ``(ncol, nlev)`` row as
whole-row operations (``np.trapezoid``'s terms summed by
:func:`repro.grids.trsk.pairwise_sum`, ``np.prod`` left to right).

Every kernel joins the process-wide :data:`repro.pp.KERNELS` table once,
here, at import; each host-side ``run_*`` wrapper takes the caller's
:class:`~repro.component.ComponentContext` and launches by hash through
it, so launches count in (and surface through) that context's metrics.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..component import ComponentContext
from ..grids.trsk import pairwise_sum
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


def _span(idx: np.ndarray) -> slice:
    """A contiguous chunk of indices as the basic slice it covers."""
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _column_integral(y: np.ndarray, p: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``np.trapezoid(y.T, p, axis=1)`` of a level-major ``y``, bitwise:
    numpy's terms ``d * (y[1:] + y[:-1]) / 2.0``, built in the scratch
    ``terms`` (``y[1:]``'s shape), summed in its order."""
    np.add(y[1:], y[:-1], out=terms)
    terms *= np.diff(p)[:, None]
    terms /= 2.0
    return pairwise_sum(terms)


def _keep_where(select: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = np.where(select, x, 0.0)`` for an int64 ``select`` of
    0 / 1 (negated in place), branch-free: and-ing a float's bits with all
    ones keeps them, with zero gives ``+0.0``.  A masked copy of a random
    mask is several times slower."""
    np.negative(select, out=select)
    np.bitwise_and(x.view(np.int64), select, out=out.view(np.int64))


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
    c = _span(idx)
    heat = dt_rad[:, c]  # scratch for the integral until written below
    colq = _column_integral(q[:, c], p, heat[1:]) / GRAVITY
    wv_factor = np.clip(colq / 30.0, 0.0, 1.0)

    cz = np.clip(coszr[c], 0.0, 1.0)
    cf = cloud_fraction[c]
    transmission = 1.0 - sw_absorptivity - 0.25 * cf
    gsw[c] = SOLAR_CONSTANT * cz * (1.0 - albedo) * np.clip(transmission, 0.0, 1.0)

    eps = eps_clear + (eps_cloud - eps_clear) * cf
    eps = eps * (0.8 + 0.2 * wv_factor)
    glw[c] = eps * STEFAN_BOLTZMANN * t[-1, c] ** 4

    np.multiply(
        ((p / p[-1]) ** 0.5)[:, None], SOLAR_CONSTANT * cz * sw_absorptivity, out=heat
    )
    heat /= CP_AIR * 8000.0  # W/m2 over an ~800 hPa airmass
    lw_cool = t[:, c] / 288.0
    lw_cool **= 4
    lw_cool *= lw_cooling_rate
    heat -= lw_cool


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
    """Bulk surface-layer fluxes for one chunk of columns; every array is
    an ``(ncol,)`` row of the lowest level."""
    c = _span(idx)
    wind = np.sqrt(u[c] ** 2 + v[c] ** 2)
    wind = np.maximum(wind, exchange_wind_min)
    rho_cd_w = 1.2 * drag_coefficient * wind

    shflx[c] = rho_cd_w * CP_AIR * (tskin[c] - t[c])
    qsat_skin = saturation_specific_humidity(tskin[c], p_sfc)
    lhflx[c] = rho_cd_w * LATENT_HEAT_VAPORIZATION * np.maximum(
        qsat_skin - q[c], 0.0
    ) * 0.7  # ocean-ish evaporation efficiency

    # Spread the flux over the lowest model layer (~500 m of air).
    layer_mass = 1.2 * 500.0
    du[c] = -rho_cd_w * u[c] / layer_mass
    dv[c] = -rho_cd_w * v[c] / layer_mass
    dt[c] = shflx[c] / (CP_AIR * layer_mass)
    dq[c] = lhflx[c] / (LATENT_HEAT_VAPORIZATION * layer_mass)


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

    The chunk's ``dT`` view holds the adjusted temperature while it
    sweeps, then its tendency.  The sweep loop may exit as soon as *this
    chunk* is stable: further sweeps would add/subtract exact zeros, so
    the early exit does not change the result relative to a global
    stability test.
    """
    c = _span(idx)
    t, dq = dT[:, c], dQ[:, c]
    t[...] = t0[:, c]
    dz = dz[:, None]
    lapse = np.empty_like(t[1:])
    unstable = dq[1:].view(np.int64)  # scratch until dq is written
    for _ in range(adjust_sweeps):
        np.subtract(t[1:], t[:-1], out=lapse)
        lapse /= dz
        np.greater(lapse, critical_lapse, out=unstable)
        if not unstable.any():
            break
        lapse -= critical_lapse
        lapse *= dz
        _keep_where(unstable, lapse, lapse)  # the excess where unstable
        lapse *= 0.25
        # Move heat upward: cool lower level, warm upper level.
        t[1:] -= lapse
        t[:-1] += lapse
    del lapse

    # Moisture: where convection fired, detrain toward 80 % RH of the
    # adjusted column.
    qsat = saturation_specific_humidity(t, p[:, None])
    t -= t0[:, c]
    t /= dt_s
    # Every |dT| is >= 0 (or NaN), so the sign of the sum -- and NaN -- do
    # not depend on its order: the level-major column sum decides alike.
    fired = (np.abs(t, out=dq).sum(axis=0) > 0).astype(np.int64)
    q = q0[:, c]
    qsat *= 0.8
    np.minimum(q, qsat, out=qsat)
    qsat -= q
    qsat /= max(dt_s, 1.0)
    _keep_where(fired, qsat, dq)
    # Removed moisture rains out (column integral, positive down).
    precip[c] = np.maximum(-_column_integral(dq, p, qsat[1:]) / GRAVITY, 0.0)


@kernel("atm.condensation")
def saturation_kernel(
    ci: np.ndarray,
    ki: np.ndarray,
    qsat: np.ndarray,
    t: np.ndarray,
    p: np.ndarray,
) -> None:
    """Tetens saturation humidity on one (columns x levels) tile."""
    c, k = _span(ci), _span(ki)
    qsat[k, c] = saturation_specific_humidity(t[k, c], p[k, None])


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
    c = _span(idx)
    q, qsat, dq = q[:, c], qsat[:, c], dQ[:, c]
    rate = np.subtract(q, qsat, out=dq)
    np.maximum(rate, 0.0, out=rate)
    rate /= condensation_timescale
    np.multiply(LATENT_HEAT_VAPORIZATION / CP_AIR, rate, out=dT[:, c])
    np.negative(rate, out=dq)
    clear = np.maximum(qsat, 1e-10, out=qsat)  # qsat is scratch from here
    np.divide(q, clear, out=clear)  # relative humidity
    clear -= cloud_rh_threshold
    clear /= 1.0 - cloud_rh_threshold
    np.clip(clear, 0.0, 1.0, out=clear)  # the layer cloud fraction
    clear *= 0.5
    np.subtract(1.0, clear, out=clear)
    # Total cloud fraction: random-overlap of layer clouds, the product
    # taken left to right down the column as np.prod does.
    overlap = clear[0].copy()
    for row in clear[1:]:
        overlap *= row
    cloud[c] = 1.0 - overlap
    precip[c] = np.maximum(-_column_integral(dq, p, clear[1:]) / GRAVITY, 0.0)


# -- host-callable wrappers (launch by hash through the caller's context) --
# Each takes level-major fields and the suite's ``PhysicsParams`` as ``prm``.


def run_radiation(ctx: ComponentContext, t, q, p, coszr, cloud_fraction, prm) -> Tuple[np.ndarray, ...]:
    """(gsw, glw, dT_rad) via the portable radiation kernel."""
    ncol = t.shape[1]
    out = np.empty(ncol), np.empty(ncol), np.empty_like(t)
    ctx.launch(
        radiation_kernel.handle, ncol, *out, t, q, p, coszr, cloud_fraction,
        prm.albedo, prm.sw_absorptivity, prm.lw_emissivity_clear,
        prm.lw_emissivity_cloud, prm.lw_cooling_rate,
    )
    return out


def run_surface_layer(ctx: ComponentContext, state: ColumnState, prm) -> Tuple[np.ndarray, ...]:
    """(dU, dV, dT, dQ, shflx, lhflx), all ``(ncol,)`` rows of the lowest
    level, via the portable surface kernel."""
    rows = [f[:, -1] for f in (state.u, state.v, state.t, state.q)]
    out = tuple(np.empty_like(f) for f in rows) + (np.empty(state.ncol), np.empty(state.ncol))
    ctx.launch(
        surface_flux_kernel.handle, state.ncol, *out, *rows, state.tskin,
        float(state.p[-1]), prm.drag_coefficient, prm.exchange_wind_min,
    )
    return out


def run_convective_adjustment(ctx: ComponentContext, t, q, p, dt_s: float, prm) -> Tuple[np.ndarray, ...]:
    """(dT, dQ, precip) via the portable convective-adjustment kernel."""
    z = 7500.0 * np.log(p[-1] / np.maximum(p, 1.0))  # heights, sfc-relative
    dz = z[:-1] - z[1:]  # positive: level k is above k+1
    out = np.empty_like(t), np.empty_like(q), np.empty(t.shape[1])
    ctx.launch(
        convective_kernel.handle, t.shape[1], *out, t, q, p, dz,
        dt_s, prm.critical_lapse, prm.adjust_sweeps,
    )
    return out


def run_condensation(ctx: ComponentContext, t, q, p, prm) -> Tuple[np.ndarray, ...]:
    """(dT, dQ, precip, cloud) via the tiled saturation + condensation
    kernels.  Saturation humidity runs as an MDRange over (ncol, nlev) —
    the two-dimensional launch, tiled to the space's lanes along the
    columns — then the per-column condensation chunk kernel consumes it."""
    nlev, ncol = t.shape
    qsat = np.empty_like(q)
    ctx.launch(saturation_kernel.handle, MDRangePolicy((ncol, nlev)), qsat, t, p)
    out = np.empty_like(t), np.empty_like(q), np.empty(ncol), np.empty(ncol)
    ctx.launch(
        condensation_kernel.handle, ncol, *out, q, qsat, p,
        prm.condensation_timescale, prm.cloud_rh_threshold,
    )
    return out
