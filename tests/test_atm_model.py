"""Tests for the GRIST component model (CPL7 contract + stepping)."""

import numpy as np
import pytest

from repro.atm import GristConfig, GristModel
from repro.atm.model import DYCORE_SUBSTEPS, TRACER_SUBSTEPS
from repro.esm import ComponentContext
from repro.obs import Obs


@pytest.fixture(scope="module")
def model():
    m = GristModel(GristConfig(level=3))
    m.init()
    m.run(4)
    return m


def test_substep_ratios_match_paper():
    """Dycore:tracer:model = 8:30:120 s -> 15 and 4 substeps."""
    assert DYCORE_SUBSTEPS == 120 // 8
    assert TRACER_SUBSTEPS == 120 // 30


def test_lifecycle_enforced():
    m = GristModel(GristConfig(level=3))
    with pytest.raises(RuntimeError, match="not initialized"):
        m.step()
    m.init()
    m.step()
    m.finalize()
    with pytest.raises(RuntimeError, match="finalized"):
        m.step()


def test_clock_advances_consistently(model):
    assert model.time == pytest.approx(model.n_steps * model.dt_model)
    assert model.dt_model == pytest.approx(DYCORE_SUBSTEPS * model.dt_dycore)
    assert model.dt_tracer == pytest.approx(model.dt_model / TRACER_SUBSTEPS)


def test_export_provides_coupling_fields(model):
    out = model.export_state()
    required = {"taux", "tauy", "t_bot", "q_bot", "u_bot", "v_bot",
                "gsw", "glw", "precip", "shflx", "lhflx"}
    assert required <= set(out.keys())
    for key in required:
        assert out[key].shape == (model.grid.n_cells,)
        assert np.all(np.isfinite(out[key]))


def test_wind_stress_aligned_with_wind(model):
    out = model.export_state()
    # tau = rho cd |V| V: components share sign with the wind.
    assert np.all(out["taux"] * out["u_bot"] >= 0)
    assert np.all(out["tauy"] * out["v_bot"] >= 0)


def test_import_sst_updates_skin_temperature():
    m = GristModel(GristConfig(level=3))
    m.init()
    sst = np.full(m.grid.n_cells, 300.0)
    m.import_state({"sst": sst})
    assert np.allclose(m.tskin, 300.0)
    with pytest.raises(ValueError):
        m.import_state({"sst": np.zeros(3)})


def test_import_ice_fraction_clipped():
    m = GristModel(GristConfig(level=3))
    m.init()
    m.import_state({"ice_fraction": np.full(m.grid.n_cells, 2.0)})
    assert m.ice_fraction.max() == 1.0


def test_state_remains_finite_over_a_day(model):
    assert np.all(np.isfinite(model.swe.h))
    assert np.all(np.isfinite(model.swe.u))
    assert model.swe.h.min() > 0
    assert np.abs(model.swe.u).max() < 200.0
    assert 150.0 < model.t_col.min() and model.t_col.max() < 350.0


def test_tracer_mass_conserved():
    m = GristModel(GristConfig(level=3))
    m.init()
    mass0 = float(np.sum(m.tracer * m.swe.h * m.grid.area_cell))
    # Tracer substeps happen inside step(); compare tracer mass against the
    # concurrently-evolving h field (mixing-ratio conservation).
    m.run(3)
    mass1 = float(np.sum(m.tracer * m.swe.h * m.grid.area_cell))
    assert mass1 == pytest.approx(mass0, rel=0.02)


def test_timers_populated():
    """The inner phases are spans on the handle the context binds: one of
    each per model step."""
    obs = Obs()
    m = GristModel(GristConfig(level=2))
    m.set_context(ComponentContext(obs=obs))
    m.init()
    m.run(2)
    for name in ("atm.dycore", "atm.tracer", "atm.physics"):
        assert len(obs.tracer.find(name)) == 2, name
        assert obs.tracer.total(name) > 0, name


def test_finalize_summary():
    m = GristModel(GristConfig(level=3))
    m.init()
    m.run(2)
    s = m.finalize()
    assert s["steps"] == 2
    assert s["simulated_seconds"] == pytest.approx(2 * m.dt_model)


class TestSemiImplicitScheme:
    """The paper's 'Semi-implicit' method class wired into the component."""

    def test_runs_stably_for_a_day(self):
        m = GristModel(GristConfig(level=3, time_scheme="semi_implicit"))
        m.init()
        m.run(24)
        assert np.isfinite(m.swe.h).all()
        assert m.swe.h.min() > 0
        assert np.abs(m.swe.u).max() < 200.0

    def test_mass_conserved(self):
        m = GristModel(GristConfig(level=3, time_scheme="semi_implicit",
                                   heating_feedback=0.0))
        m.init()
        mass0 = m.dycore.total_mass(m.swe)
        m.run(6)
        # With heating feedback off, only round-off touches the mass.
        assert m.dycore.total_mass(m.swe) == pytest.approx(mass0, rel=1e-10)

    def test_unknown_scheme_rejected(self):
        m = GristModel(GristConfig(level=3, time_scheme="leapfrog"))
        with pytest.raises(ValueError, match="time_scheme"):
            m.init()

    def test_si_and_rk4_agree_qualitatively(self):
        """Same physics, different time schemes: the large-scale state
        stays close after a few hours."""
        results = {}
        for scheme in ("rk4", "semi_implicit"):
            m = GristModel(GristConfig(level=3, time_scheme=scheme))
            m.init()
            m.run(4)
            results[scheme] = m.swe.h.copy()
        diff = np.abs(results["rk4"] - results["semi_implicit"]).max()
        scale = results["rk4"].max() - results["rk4"].min()
        assert diff < 0.15 * scale
