"""Bucket land-surface kernel on the performance-portability layer.

The Manabe bucket update of :meth:`LandModel.force` is pointwise over
the (atmosphere) land cells, so it ports directly onto a flat launch by
hash through the caller's context — each chunk of cells is independent,
making the port bit-identical to the whole-array reference on every
execution space.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..component import ComponentContext
from ..pp import kernel
from ..utils.units import LATENT_HEAT_VAPORIZATION, STEFAN_BOLTZMANN

__all__ = ["bucket_kernel", "run_bucket"]

T_SNOW = 273.15  # precipitation falls as snow below this air temperature
LATENT_HEAT_FUSION_W = 3.337e5 * 1000.0  # J/m^3 of water equivalent


@kernel("lnd.bucket")
def bucket_kernel(
    idx: np.ndarray,
    tskin_out: np.ndarray,
    bucket_out: np.ndarray,
    snow_out: np.ndarray,
    runoff: np.ndarray,
    evap_out: np.ndarray,
    albedo_out: np.ndarray,
    tskin: np.ndarray,
    bucket: np.ndarray,
    snow: np.ndarray,
    land_mask: np.ndarray,
    gsw: np.ndarray,
    glw: np.ndarray,
    precip: np.ndarray,
    t_air: np.ndarray,
    dt: float,
    bucket_capacity: float,
    heat_capacity: float,
    soil_albedo: float,
    snow_albedo: float,
    snow_masking_depth: float,
    emissivity: float,
    beta_exponent: float,
) -> None:
    """Energy balance + bucket hydrology for one chunk of land cells."""
    m = land_mask[idx]
    tk = tskin[idx]
    bk = bucket[idx]
    sn = snow[idx]

    beta = np.clip(bk / bucket_capacity, 0.0, 1.0) ** beta_exponent
    # Snow-masked albedo: blends toward the snow albedo as the pack
    # deepens past the masking depth.
    cover = np.clip(sn / snow_masking_depth, 0.0, 1.0)
    albedo = soil_albedo + (snow_albedo - soil_albedo) * cover
    albedo_out[idx] = albedo
    # Potential evaporation from the available energy (bounded >= 0).
    net_rad = (1.0 - albedo) * gsw[idx] + emissivity * (
        glw[idx] - STEFAN_BOLTZMANN * tk**4
    )
    pot_evap = np.maximum(0.3 * net_rad, 0.0) / (LATENT_HEAT_VAPORIZATION * 1000.0)
    evap = beta * pot_evap  # m/s of water
    evap_out[idx] = evap

    # Snow: precipitation falls frozen below T_SNOW; a snow pack melts
    # with the positive energy balance (energy-limited), consuming
    # latent heat of fusion and filling the bucket.
    frozen = t_air[idx] < T_SNOW
    water_in = np.maximum(precip[idx], 0.0) / 1000.0  # m/s of water
    snowfall = np.where(frozen, water_in, 0.0)
    rain = np.where(frozen, 0.0, water_in)
    melt_energy = np.maximum(net_rad, 0.0) * (tk > T_SNOW - 0.5)
    melt_rate = np.where(sn > 0.0, melt_energy / LATENT_HEAT_FUSION_W, 0.0)
    melt = np.minimum(melt_rate * dt, sn + snowfall * dt) / max(dt, 1e-12)
    snow_out[idx] = np.where(m, np.maximum(sn + dt * (snowfall - melt), 0.0), sn)

    # Energy balance: radiative + sensible exchange with the air, minus
    # latent cooling (evaporation + snowmelt).
    sensible = 15.0 * (t_air[idx] - tk)
    latent = evap * 1000.0 * LATENT_HEAT_VAPORIZATION + melt * LATENT_HEAT_FUSION_W
    dT = (net_rad + sensible - latent) / heat_capacity
    tskin_out[idx] = np.clip(np.where(m, tk + dt * dT, tk), 180.0, 340.0)

    # Bucket hydrology: rain + snowmelt in, evaporation out.
    bucket_new = bk + dt * (rain + melt - evap)
    ro = np.maximum(bucket_new - bucket_capacity, 0.0)
    bucket_out[idx] = np.where(m, np.clip(bucket_new - ro, 0.0, bucket_capacity), bk)
    runoff[idx] = ro


def run_bucket(
    ctx: ComponentContext,
    tskin: np.ndarray,
    bucket: np.ndarray,
    snow: np.ndarray,
    land_mask: np.ndarray,
    gsw: np.ndarray,
    glw: np.ndarray,
    precip: np.ndarray,
    t_air: np.ndarray,
    dt: float,
    params,
) -> Tuple[np.ndarray, ...]:
    """(tskin, bucket, snow, runoff, evap, albedo) after one bucket step.

    ``params`` is a :class:`repro.lnd.model.LandConfig`-shaped object.
    """
    n = tskin.shape[0]
    tskin_out = np.zeros_like(tskin)
    bucket_out = np.zeros_like(bucket)
    snow_out = np.zeros_like(snow)
    runoff = np.zeros(n)
    evap = np.zeros(n)
    albedo = np.zeros(n)
    ctx.launch(
        bucket_kernel.handle, n,
        tskin_out, bucket_out, snow_out, runoff, evap, albedo,
        tskin, bucket, snow, land_mask, gsw, glw, precip, t_air,
        dt, params.bucket_capacity, params.heat_capacity, params.albedo,
        params.snow_albedo, params.snow_masking_depth, params.emissivity,
        params.beta_exponent,
    )
    return tskin_out, bucket_out, snow_out, runoff, evap, albedo
