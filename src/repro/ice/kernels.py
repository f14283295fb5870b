"""Sea-ice thermodynamics kernel on the performance-portability layer.

The slab energy balance of :meth:`CiceModel._thermodynamics` is pointwise
over the (nlat, nlon) ocean surface, so it ports directly onto a tiled
``MDRangePolicy`` launch — one tile per CPE/thread block, slice-view
indexing, bit-identical to the whole-array reference because every point
is independent.  The free-drift dynamics stay in plain numpy: their
upwind stencils read neighbours across tile boundaries, which the
disjoint-chunk contract of :func:`repro.pp.parallel_for` does not cover.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..component import ComponentContext
from ..pp import MDRangePolicy, kernel
from ..utils.units import LATENT_HEAT_FUSION, RHO_ICE, STEFAN_BOLTZMANN

__all__ = ["thermo_kernel", "run_thermodynamics"]

T_FREEZE = -1.8       # deg C
ICE_ALBEDO = 0.65
MIN_CONCENTRATION = 1e-4


@kernel("ice.thermo")
def thermo_kernel(
    yi: np.ndarray,
    xi: np.ndarray,
    th_out: np.ndarray,
    cn_out: np.ndarray,
    ts_out: np.ndarray,
    thickness: np.ndarray,
    concentration: np.ndarray,
    tsurf: np.ndarray,
    gsw: np.ndarray,
    glw: np.ndarray,
    t_air: np.ndarray,
    freezing: np.ndarray,
    ocean: np.ndarray,
    dt: float,
    conductivity: float,
    h_min: float,
) -> None:
    """Slab energy balance on one (nlat, nlon) tile."""
    if all(len(i) and (np.diff(i) == 1).all() for i in (yi, xi)):
        # A tile is two contiguous ranges: views move the same bytes, no gather / scatter copy.
        sl = (slice(yi[0], yi[-1] + 1), slice(xi[0], xi[-1] + 1))
    else:
        sl = np.ix_(yi, xi)
    th = thickness[sl]
    cn = concentration[sl]
    ts = tsurf[sl]
    oc = ocean[sl]
    frz = freezing[sl]
    t_k = ts + 273.15

    # Surface balance over ice (W/m^2, positive = melt).
    absorbed = (1.0 - ICE_ALBEDO) * gsw[sl] + glw[sl]
    emitted = 0.98 * STEFAN_BOLTZMANN * t_k**4
    sensible = 15.0 * (t_air[sl] - ts)
    balance = absorbed - emitted + sensible

    # Conductive flux through the slab keeps the bottom at freezing.
    h_eff = np.maximum(th, h_min)
    conductive = conductivity * (T_FREEZE - ts) / h_eff

    has_ice = (cn > MIN_CONCENTRATION) & oc
    # Melt at the top where the balance is positive.
    melt_rate = np.where(
        has_ice & (balance > 0), balance / (RHO_ICE * LATENT_HEAT_FUSION), 0.0
    )
    # Growth at the bottom where the ocean is freezing.
    grow_rate = np.where(
        oc & (frz | (has_ice & (conductive > 0))),
        np.abs(conductive) / (RHO_ICE * LATENT_HEAT_FUSION) + 1e-9,
        0.0,
    )
    th_new = np.where(oc, np.maximum(th + dt * (grow_rate - melt_rate), 0.0), 0.0)
    # Concentration follows thickness (lead closing/opening).
    cn_out[sl] = np.where(oc, np.clip(th_new / 0.5, 0.0, 1.0), 0.0)
    # New ice starts at the minimum thickness.
    new_ice = oc & frz & (th_new < h_min)
    th_out[sl] = np.where(new_ice, h_min, th_new)

    # Surface temperature relaxes toward the air over ice.
    ts_out[sl] = np.where(
        has_ice,
        ts + dt / 86400.0 * (np.minimum(t_air[sl], 0.0) - ts),
        T_FREEZE,
    )


def run_thermodynamics(
    ctx: ComponentContext,
    thickness: np.ndarray,
    concentration: np.ndarray,
    tsurf: np.ndarray,
    gsw: np.ndarray,
    glw: np.ndarray,
    t_air: np.ndarray,
    freezing: np.ndarray,
    ocean: np.ndarray,
    dt: float,
    conductivity: float,
    h_min: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thickness, concentration, tsurf) after one thermodynamic step,
    dispatched as an MDRange over the (nlat, nlon) surface, one tile per
    lane of ``ctx.space``."""
    th_out = np.zeros_like(thickness)
    cn_out = np.zeros_like(concentration)
    ts_out = np.zeros_like(tsurf)
    policy = MDRangePolicy(thickness.shape)
    ctx.launch(
        thermo_kernel.handle, policy,
        th_out, cn_out, ts_out,
        thickness, concentration, tsurf, gsw, glw, t_air, freezing, ocean,
        dt, conductivity, h_min,
    )
    return th_out, cn_out, ts_out
