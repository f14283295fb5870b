"""System-level climate sanity: a 10-day coupled integration must stay in
a physically plausible envelope with bounded drifts — the kind of
acceptance run real coupled-model developments use before any science."""

import numpy as np
import pytest

from repro.esm import AP3ESM, AP3ESMConfig, atm_snapshot
from repro.obs import Obs


@pytest.fixture(scope="module")
def ten_day_run():
    model = AP3ESM(AP3ESMConfig(atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=6),
                   obs=Obs())
    model.init()
    wet = model.ocn.mask3d[0]
    area = model.ocn.metrics.area
    start = {
        "sst_mean": float(np.sum(model.ocn.t[0][wet] * area[wet]) / area[wet].sum()),
        "mass": model.atm.dycore.total_mass(model.atm.swe),
        "salt": model.ocn.tracers.content(model.ocn.s),
        "ice_volume": model.ice.total_volume(),
        "tskin_mean": float(model.atm.tskin.mean()),
    }
    model.run_days(10.0)
    return model, start, wet, area


def test_sst_drift_bounded(ten_day_run):
    model, start, wet, area = ten_day_run
    sst_mean = float(np.sum(model.ocn.t[0][wet] * area[wet]) / area[wet].sum())
    assert abs(sst_mean - start["sst_mean"]) < 3.0  # deg C over 10 days


def test_atmosphere_mass_drift_small(ten_day_run):
    """Dycore mass is exact; only the heating feedback moves it, slowly."""
    model, start, _, _ = ten_day_run
    drift = abs(model.atm.dycore.total_mass(model.atm.swe) - start["mass"]) / start["mass"]
    assert drift < 0.05


def test_ocean_salt_nearly_conserved(ten_day_run):
    """Salinity has no interior sources; only the surface freshwater flux
    moves the total, slowly."""
    model, start, _, _ = ten_day_run
    drift = abs(model.ocn.tracers.content(model.ocn.s) - start["salt"]) / start["salt"]
    assert drift < 0.01


def test_ice_stays_polar_and_bounded(ten_day_run):
    model, _, _, _ = ten_day_run
    icy = model.ice.concentration > 0.1
    if icy.any():
        assert np.abs(model.ice.grid.lat[icy]).min() > np.radians(40.0)
    # Not a runaway snowball: ice area below 30% of the ocean.
    frac = model.ice.total_area() / model.ocn.metrics.area[model.ocn.grid.mask].sum()
    assert frac < 0.3


def test_radiation_budget_plausible(ten_day_run):
    """Global-mean absorbed shortwave within Earth-like bounds (the model
    samples a single time of day at coupling, so the envelope is loose)."""
    model, _, _, _ = ten_day_run
    snap = atm_snapshot(model.atm)
    gsw_mean = snap["gsw"].mean()
    assert 50.0 < gsw_mean < 700.0


def test_hydrology_closes(ten_day_run):
    """Land bucket stays within capacity; soil wetness in [0, 1]."""
    model, _, _, _ = ten_day_run
    land = model.land_mask_atm
    assert np.all(model.lnd.bucket[land] >= 0)
    assert np.all(model.lnd.bucket[land] <= model.lnd.config.bucket_capacity + 1e-12)


def test_no_extreme_winds(ten_day_run):
    model, _, _, _ = ten_day_run
    assert np.abs(model.atm.swe.u).max() < 150.0


def test_timers_account_everything(ten_day_run):
    """The coupling-step span contains every component span and they
    account for it; each component's phases fit inside its span."""
    model, _, _, _ = ten_day_run
    total = model.obs.tracer.total
    parts = sum(total(n) for n in ("atm.run", "ocn.run", "ice.step", "lnd.step"))
    assert 0.9 * total("cpl.step") <= parts <= total("cpl.step")
    for parent, phases in {
        "atm.run": ("atm.dycore", "atm.tracer", "atm.physics"),
        "ocn.run": ("ocn.barotropic", "ocn.baroclinic", "ocn.tracer"),
        "ice.step": ("ice.thermo", "ice.dynamics"),
    }.items():
        assert 0.0 < sum(total(p) for p in phases) <= total(parent), parent
    # SYPD reads the same wall the span measured (two clock reads apart).
    assert model.wall_s == pytest.approx(total("cpl.step"), rel=0.02)
