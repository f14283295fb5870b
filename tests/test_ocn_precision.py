"""The precision switch selects the ocean's compute (§5.2.3): under the
``mixed`` policy ``LicomModel`` holds and steps its state, forcing and
frozen tables in fp32; under ``fp64`` nothing changes.  The exports are
fp64 either way, and every bitwise twin holds within one policy."""

import numpy as np
import pytest

from repro.esm import (
    AP3ESM,
    AP3ESMConfig,
    ComponentContext,
    default_mixed_policy,
    first_difference,
    snapshot,
)
from repro.ocn import LicomConfig, LicomModel
from repro.ocn.baroclinic import linear_eos
from repro.ocn.mixing import MixingParams, column_kappa

TINY = dict(atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=5)
SMALL = LicomConfig(nlon=24, nlat=16, n_levels=4)


def _mixed_ctx():
    return ComponentContext(precision=default_mixed_policy())


def _float_arrays(ocn):
    """Every floating array the ocean holds: state, forcing, frozen tables."""
    m = ocn.metrics
    arrays = dict(ocn.state())
    arrays.update((k, getattr(ocn, k)) for k in ocn.RESTART_EXTRA)
    arrays.update((f"metrics.{k}", getattr(m, k))
                  for k in ("area", "dxu", "dyv", "ly_east", "lx_north", "f_c", "lap_scale"))
    bt = ocn.barotropic
    arrays.update({"dz": ocn.dz, "h_u": bt.h_u, "h_v": bt.h_v,
                   "hu_stress": bt._hu_stress, "hv_stress": bt._hv_stress,
                   "vol": ocn.tracers.vol, "neigh": ocn.tracers.neigh})
    for owner in ("barotropic", "baroclinic"):
        for i, a in enumerate(getattr(ocn, owner).rotation._tables):
            arrays[f"{owner}.coriolis{i}"] = a
    columns = {"tracer": ocn.tracers.column, "friction_u": ocn.baroclinic.friction_u,
               "friction_v": ocn.baroclinic.friction_v}
    for owner, column in columns.items():
        for i, a in enumerate(column._geometry[:2]):
            arrays[f"{owner}.geometry{i}"] = a
    return arrays


def _run(precision, couplings=6, **extra):
    m = AP3ESM(AP3ESMConfig(precision=precision, **TINY, **extra))
    m.init()
    m.run_couplings(couplings)
    return m


@pytest.mark.parametrize("precision,dtype", [("mixed", np.float32), ("fp64", np.float64)])
def test_policy_selects_the_ocean_dtype(precision, dtype):
    ocn = _run(precision).ocn
    for name, arr in _float_arrays(ocn).items():
        assert arr.dtype == dtype, name
    assert ocn.mask3d.dtype == bool and ocn.metrics.mask_c.dtype == bool
    out = ocn.export_state()
    assert out.pop("freezing").dtype == bool
    assert {a.dtype for a in out.values()} == {np.dtype(np.float64)}


def test_fp64_coupled_ocean_is_the_standalone_ocean(monkeypatch):
    """Under fp64 the coupled ocean steps exactly as a standalone model fed
    the same forcing at the same dt."""
    forcing = []
    real = LicomModel.pre_coupling

    def record(self, imports):
        forcing.append({k: v.copy() for k, v in imports.items()})
        real(self, imports)

    monkeypatch.setattr(LicomModel, "pre_coupling", record)
    coupled = _run("fp64", couplings=11)
    twin = LicomModel(coupled.ocn.config)
    twin.init()
    for attr in ("dt_barotropic", "dt_baroclinic", "dt_tracer"):
        setattr(twin, attr, getattr(coupled.ocn, attr))
    assert len(forcing) == 2
    for f in forcing:
        real(twin, f)
        twin.step(coupled.ocn_steps_per_coupling * twin.dt_baroclinic)
    assert first_difference(coupled.ocn.state(), twin.state()) is None


def test_mixed_restart_at_split_point(tmp_path):
    """run 6+4 == run 6, save_restart, fresh model, load_restart, run 4, with
    the fp32 ocean (the split crosses an ocean alarm)."""
    straight = _run("mixed", couplings=10)
    first = _run("mixed", couplings=6)
    first.save_restart(tmp_path)
    second = AP3ESM(AP3ESMConfig(precision="mixed", **TINY))
    second.init()
    second.load_restart(tmp_path)
    second.run_couplings(4)
    assert second.ocn.t.dtype == np.float32
    assert first_difference(snapshot(straight), snapshot(second)) is None


def test_mixed_serial_equals_concurrent_domains():
    serial = _run("mixed", couplings=10)
    concurrent = _run("mixed", couplings=10, concurrent_domains=True)
    assert serial.ocn.t.dtype == concurrent.ocn.t.dtype == np.float32
    assert first_difference(snapshot(serial), snapshot(concurrent)) is None


def _stepped(mixed):
    m = LicomModel(SMALL)
    if mixed:
        m.set_context(_mixed_ctx())
    m.init()
    shape = m.metrics.shape
    m.pre_coupling({"taux": np.full(shape, 0.08), "heat_flux": np.full(shape, -60.0)})
    m.run(2)
    return m


@pytest.mark.parametrize("saved_mixed", [False, True], ids=["fp64_into_mixed", "mixed_into_fp64"])
def test_restart_takes_the_live_dtype(saved_mixed, tmp_path):
    """A restart written under one policy loads into the other's dtype."""
    saved = _stepped(saved_mixed)
    saved.save_restart(tmp_path)
    loaded = _stepped(not saved_mixed)
    loaded.load_restart(tmp_path)
    want = np.float64 if saved_mixed else np.float32
    for key in (*loaded.STATE, *loaded.RESTART_EXTRA):
        got = loaded.state()[key] if key in loaded.STATE else getattr(loaded, key)
        ref = saved.state()[key] if key in saved.STATE else getattr(saved, key)
        assert got.dtype == want, key
        assert np.array_equal(got, ref.astype(want)), key
    loaded.step()
    assert {a.dtype for a in loaded.state().values()} == {np.dtype(want)}


def test_set_context_rebinds_a_live_model():
    """Binding the mixed policy after init re-holds the model in fp32, and
    binding fp64 again rebuilds the fp64 tables exactly."""
    m = LicomModel(SMALL)
    m.init()
    area64 = m.metrics.area
    m.set_context(_mixed_ctx())
    assert m.t.dtype == m.metrics.area.dtype == m.dz.dtype == np.float32
    m.set_context(ComponentContext())
    assert m.t.dtype == np.float64
    assert np.array_equal(m.metrics.area, area64)


def test_column_allocations_follow_the_input_dtype():
    """The column phases allocate in their input's dtype: an fp64 buffer
    there would compute in fp64 and round silently on assignment."""
    m = _stepped(mixed=True)
    kappa = column_kappa(linear_eos(m.t, m.s), m.u, m.v, m.dz, MixingParams())
    assert kappa.dtype == np.float32
    factors = m.tracers.column.factor(kappa, m.dt_tracer)
    assert {f.dtype for f in factors} == {np.dtype(np.float32)}


def test_content_of_fp32_field_accumulates_in_fp64():
    m = _stepped(mixed=True)
    assert m.t.dtype == m.tracers.vol.dtype == np.float32
    assert m.tracers.content(m.t) == pytest.approx(
        m.tracers.content(m.t.astype(np.float64)), rel=1e-12
    )
    bt = m.bt
    up = type(bt)(*(a.astype(np.float64) for a in (bt.eta, bt.u, bt.v)))
    assert m.barotropic.total_volume(bt) == pytest.approx(m.barotropic.total_volume(up), rel=1e-12)
    assert m.barotropic.kinetic_energy(bt) == pytest.approx(m.barotropic.kinetic_energy(up), rel=1e-12)


def test_apply_precision_skips_an_fp32_held_ocean(monkeypatch):
    ctx = _mixed_ctx()
    m = _stepped(mixed=True)
    m.set_context(ctx)
    before = m.state()
    monkeypatch.setattr(ctx.precision, "apply", lambda state: pytest.fail("round trip"))
    ctx.apply_precision(m)
    assert all(m.state()[k] is v for k, v in before.items())
