"""The conventional physics parameterization suite.

Four schemes, each a vectorized column parameterization of the kind the AI
suite replaces (§5.2.1): gray-atmosphere radiation (producing the surface
fluxes ``gsw``/``glw`` and a heating profile), a bulk surface layer,
dry/moist convective adjustment, and large-scale condensation.  The suite
returns (dU, dV, dT, dQ) tendencies plus the diagnostics (precipitation,
cloud fraction, surface fluxes) the coupler and the land model consume.

The suite is deliberately branch- and iteration-heavy relative to the AI
suite's dense tensor kernels — that cost asymmetry is the basis of the
paper's "computational gains by unifying most operations into highly
efficient tensor kernels" claim, measured in ``benchmarks/bench_ai_physics``.

The suite runs level-major: :meth:`ConventionalPhysics.compute` transposes
its ``(ncol, nlev)`` inputs once into C-contiguous ``(nlev, ncol)`` arrays
(the layout of :mod:`repro.atm.kernels`) and its four 2-D tendencies back
once; each public scheme method is a transpose adapter over the same
kernels.  Temporaries die with their scheme; tendencies accumulate in
place in the left-to-right order of ``dT_rad + dT_s + dT_cv + dT_ls +
dT_bl``.  The surface layer yields the lowest level only, so above it the
sum adds ``+0.0``, as adding a zero tendency does (``-0.0`` → ``+0.0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..component import ComponentContext
from .columns import ColumnState
from .kernels import run_condensation, run_convective_adjustment, run_radiation, run_surface_layer

__all__ = ["PhysicsTendencies", "PhysicsParams", "ConventionalPhysics"]


def _flip(field: np.ndarray) -> np.ndarray:
    """A 2-D field transposed into a fresh C-contiguous array."""
    return np.ascontiguousarray(field.T)


def _add_surface(acc: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """``acc + s`` in place, for a tendency ``s`` that is zero above the
    lowest level and ``bottom`` on it."""
    acc[:-1] += 0.0
    acc[-1] += bottom
    return acc


@dataclass
class PhysicsTendencies:
    """Output of one physics step: tendencies (per second) + diagnostics."""

    du: np.ndarray           # (ncol, nlev) m/s^2
    dv: np.ndarray
    dt: np.ndarray           # K/s
    dq: np.ndarray           # kg/kg/s
    gsw: np.ndarray          # (ncol,) surface downward shortwave W/m^2
    glw: np.ndarray          # (ncol,) surface downward longwave W/m^2
    precip: np.ndarray       # (ncol,) kg/m^2/s
    cloud_fraction: np.ndarray  # (ncol,) diagnosed total cloud fraction
    shflx: np.ndarray        # (ncol,) surface sensible heat flux W/m^2
    lhflx: np.ndarray        # (ncol,) surface latent heat flux W/m^2

    def split(self, sizes) -> "list[PhysicsTendencies]":
        """Slice a stacked-column tendency batch back into per-member parts.

        ``sizes`` are the per-member column counts in stacking order; the
        slices are views, preserving bitwise identity with the batch.
        """
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        if offsets[-1] != self.gsw.shape[0]:
            raise ValueError(
                f"split sizes sum to {offsets[-1]}, batch has {self.gsw.shape[0]} columns"
            )
        parts = []
        for a, b in zip(offsets[:-1], offsets[1:]):
            parts.append(PhysicsTendencies(
                du=self.du[a:b], dv=self.dv[a:b], dt=self.dt[a:b], dq=self.dq[a:b],
                gsw=self.gsw[a:b], glw=self.glw[a:b], precip=self.precip[a:b],
                cloud_fraction=self.cloud_fraction[a:b],
                shflx=self.shflx[a:b], lhflx=self.lhflx[a:b],
            ))
        return parts


@dataclass(frozen=True)
class PhysicsParams:
    """Tunable coefficients of the conventional suite."""

    albedo: float = 0.3
    sw_absorptivity: float = 0.12      # column shortwave absorption share
    lw_emissivity_clear: float = 0.70
    lw_emissivity_cloud: float = 0.95
    lw_cooling_rate: float = 1.6e-5    # K/s radiative cooling scale
    drag_coefficient: float = 1.3e-3
    exchange_wind_min: float = 1.0     # m/s gustiness floor
    critical_lapse: float = 7.0e-3     # K/m convective threshold
    adjust_sweeps: int = 6
    condensation_timescale: float = 1800.0  # s
    cloud_rh_threshold: float = 0.8
    # K-profile boundary-layer diffusion: strong near the surface (where
    # the surface fluxes stir), decaying to a free-troposphere floor.
    pbl_kappa_surface: float = 10.0    # m^2/s
    pbl_kappa_free: float = 0.1        # m^2/s
    pbl_depth_fraction: float = 0.25   # share of levels in the PBL


class ConventionalPhysics:
    """The conventional suite; call :meth:`compute` on a column batch.

    Every scheme launches the portable kernels in
    :mod:`repro.atm.kernels` through the bound ``ComponentContext`` (the
    calling atmosphere's in a coupled run, a private serial one
    standalone).  Results are bit-identical on every space — the columns
    are independent, so chunking commutes with the math.
    """

    def __init__(
        self,
        params: PhysicsParams | None = None,
        ctx: Optional[ComponentContext] = None,
    ) -> None:
        self.params = params if params is not None else PhysicsParams()
        self.ctx = ctx if ctx is not None else ComponentContext()
        self._mix_key = None

    def bind(self, ctx: ComponentContext) -> None:
        """Launch through (and count on) ``ctx`` from now on."""
        self.ctx = ctx

    # -- individual schemes: (ncol, nlev) adapters over the level-major ones --

    def radiation(
        self, state: ColumnState, cloud_fraction: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gray radiation: (gsw, glw, dT_rad)."""
        gsw, glw, dT = run_radiation(
            self.ctx, _flip(state.t), _flip(state.q), state.p, state.coszr, cloud_fraction, self.params
        )
        return gsw, glw, _flip(dT)

    def surface_layer(
        self, state: ColumnState
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk fluxes: (dU, dV, dT, dQ tendencies at the lowest level plus
        sensible/latent fluxes)."""
        out = run_surface_layer(self.ctx, state, self.params)
        fields = tuple(np.zeros_like(f) for f in (state.u, state.v, state.t, state.q))
        for field, bottom in zip(fields, out):
            field[:, -1] = bottom
        return fields + out[4:]

    def convective_adjustment(self, state: ColumnState, dt_s: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Relax super-critical lapse rates pairwise, conserving enthalpy.

        Returns (dT, dQ, convective precip rate).  The level loop is short
        (nlev) and fully vectorized over each chunk of columns.
        """
        dT, dQ, precip = run_convective_adjustment(
            self.ctx, _flip(state.t), _flip(state.q), state.p, dt_s, self.params
        )
        return _flip(dT), _flip(dQ), precip

    def large_scale_condensation(self, state: ColumnState, dt_s: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Condense supersaturation: (dT, dQ, precip, cloud fraction)."""
        dT, dQ, precip, cloud = run_condensation(
            self.ctx, _flip(state.t), _flip(state.q), state.p, self.params
        )
        return _flip(dT), _flip(dQ), precip, cloud

    def boundary_layer_diffusion(
        self, state: ColumnState, dt_s: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """K-profile vertical mixing of (U, V, T, Q): implicit solve with a
        surface-intensified diffusivity (reuses the same tridiagonal
        machinery as the ocean's Canuto scheme — one substrate, two
        components)."""
        mix = self._mixing(state.p, dt_s)
        fields = (state.u, state.v, state.t, state.q)
        return tuple(_flip(mix(_flip(f))) for f in fields)  # type: ignore[return-value]

    def _mixing(self, p, dt_s):
        """The mixing tendency of one level-major field, as a function.  Its
        column geometry and factorisation depend only on ``p``, the params and
        ``dt_s``, so they are memoised on the last of those."""
        key = (p.dtype.str, p.tobytes(), self.params, float(dt_s))
        if key != self._mix_key:
            self._mix_key, self._mix = key, self._boundary_layer(p, dt_s)
        column, factors = self._mix

        def tendency(f: np.ndarray) -> np.ndarray:
            tend = column.solve(factors, f)
            tend -= f
            tend /= dt_s
            return tend

        return tendency

    def _boundary_layer(self, p, dt_s):
        """(ColumnDiffusion, its factors for ``dt_s``) of the boundary layer."""
        from ..ocn.mixing import ColumnDiffusion

        prm = self.params
        nlev = len(p)
        # Level "thicknesses" from the pressure spacing (hydrostatic).
        rho_air = p / (287.0 * 260.0)
        edges = np.concatenate([[p[0] - (p[1] - p[0]) / 2],
                                (p[:-1] + p[1:]) / 2,
                                [p[-1] + (p[-1] - p[-2]) / 2]])
        dz = np.abs(np.diff(edges)) / (rho_air * 9.81)
        dz = np.maximum(dz, 10.0)

        # K profile: surface value over the lowest pbl_depth_fraction of
        # the column, decaying upward (index 0 = top).
        k_iface = np.full(nlev - 1, prm.pbl_kappa_free)
        n_pbl = max(1, int(round(nlev * prm.pbl_depth_fraction)))
        ramp = np.linspace(0.0, 1.0, n_pbl)
        k_iface[-n_pbl:] = prm.pbl_kappa_free + (
            prm.pbl_kappa_surface - prm.pbl_kappa_free
        ) * ramp

        column = ColumnDiffusion(dz)
        # kappa is the same in every column: one (nlev, 1) coefficient set
        # broadcasts over the columns of every right-hand side.
        return column, column.factor(k_iface[:, None], dt_s)

    # -- the full suite -------------------------------------------------------

    def compute(self, state: ColumnState, dt_s: float) -> PhysicsTendencies:
        """Run all schemes and combine tendencies (process splitting)."""
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        t, q = _flip(state.t), _flip(state.q)
        p, prm = state.p, self.params
        # dt = dT_rad + dT_s + dT_cv + dT_ls + dT_bl, dq = dQ_s + dQ_cv + dQ_ls
        # + dQ_bl: added left to right in place (one add commutes, so dQ_s
        # joins dQ_cv's array); every other temporary dies once added.
        du_s, dv_s, dT_s, dQ_s, shflx, lhflx = run_surface_layer(self.ctx, state, prm)
        dT_cv, dq, precip = run_convective_adjustment(self.ctx, t, q, p, dt_s, prm)
        _add_surface(dq, dQ_s)
        dT_ls, dQ_ls, precip_ls, cloud = run_condensation(self.ctx, t, q, p, prm)
        dq += dQ_ls
        del dQ_ls
        precip += precip_ls
        gsw, glw, dt = run_radiation(self.ctx, t, q, p, state.coszr, cloud, prm)
        _add_surface(dt, dT_s)
        dt += dT_cv
        dt += dT_ls
        del dT_cv, dT_ls
        # Each tendency goes back to (ncol, nlev) as soon as it is whole.
        mix = self._mixing(p, dt_s)
        dt += mix(t)
        dt = _flip(dt)
        dq += mix(q)
        dq = _flip(dq)
        del t, q
        du = _flip(_add_surface(mix(_flip(state.u)), du_s))
        dv = _flip(_add_surface(mix(_flip(state.v)), dv_s))
        return PhysicsTendencies(du, dv, dt, dq, gsw, glw, precip, cloud, shflx, lhflx)
