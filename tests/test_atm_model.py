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
    assert model.dt_model == 3600.0
    assert model.dt_model == pytest.approx(model.dycore_substeps * model.dt_dycore)
    assert model.dt_tracer == pytest.approx(model.dt_model / model.tracer_substeps)


#: The semi-implicit path's substeps at levels 1-5 (twice the explicit bound, uncapped).
SEMI_IMPLICIT_SUBSTEPS = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2}


@pytest.mark.parametrize("level, substeps", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 10)])
def test_dycore_substeps_follow_cfl(level, substeps):
    """The dycore takes the fewest equal substeps of the one-hour model step
    that sit inside 0.9 of RK4's stability bound and at most 1 800 s — never
    more than the 0.35-CFL count (``substeps``, floored at two); the tracer
    keeps 4 per hour and the semi-implicit path splits on 2x the bound."""
    m = GristModel(GristConfig(level=level))
    m.init()
    dt_rk4 = 0.9 * m.dycore.max_stable_dt(m.swe, cfl=1.0)
    dt_limit = min(dt_rk4, 1800.0)
    n = m.dycore_substeps
    assert n <= max(2, substeps)
    assert m.dt_dycore <= dt_limit
    assert n == 1 or m.dt_model / (n - 1) > dt_limit
    assert m.tracer_substeps == TRACER_SUBSTEPS
    si = GristModel(GristConfig(level=level, time_scheme="semi_implicit"))
    si.init()
    assert si.dycore_substeps == SEMI_IMPLICIT_SUBSTEPS[level]
    assert si.dt_dycore <= 2.0 * dt_rk4
    assert si.dycore_substeps == 1 or si.dt_model / (si.dycore_substeps - 1) > 2.0 * dt_rk4
    assert si.dt_model == pytest.approx(si.dycore_substeps * si.dt_dycore)


@pytest.mark.parametrize("level, n", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 4)])
def test_dycore_substep_counts(level, n):
    """The substep counts are pinned: two 1 800 s substeps up to level 4
    (the accuracy cap), then RK4's bound halves the step per level; the
    semi-implicit path takes half as many."""
    m = GristModel(GristConfig(level=level))
    m.init()
    assert m.dycore_substeps == n
    si = GristModel(GristConfig(level=level, time_scheme="semi_implicit"))
    si.init()
    assert si.dycore_substeps == SEMI_IMPLICIT_SUBSTEPS[level]


def test_rk4_substep_margin_holds_both_ways():
    """Perturbed TC2 at level 4: the model's 1 800 s substep stays finite for
    10 days with mass to round-off, while one 3 600 s step, past RK4's
    bound, goes non-finite within a day."""
    m = GristModel(GristConfig(level=4))
    m.init()
    assert m.dt_dycore == 1800.0
    s0 = m.swe.copy()
    s0.h = s0.h * (1.0 + 1e-3 * np.sin(3.0 * m.grid.lon_cell) * np.cos(m.grid.lat_cell))
    mass0 = m.dycore.total_mass(s0)
    s = s0.copy()
    for _ in range(10 * 48):
        s = m.dycore.step_rk4(s, m.dt_dycore)
    assert np.isfinite(s.h).all() and np.isfinite(s.u).all()
    assert m.dycore.total_mass(s) == pytest.approx(mass0, rel=1e-12)
    s = s0.copy()
    with np.errstate(all="ignore"):
        for _ in range(24):
            s = m.dycore.step_rk4(s, 3600.0)
    assert not (np.isfinite(s.h).all() and np.isfinite(s.u).all())


def test_cfl_substep_costs_no_tc2_accuracy():
    """Williamson TC2 at level 4 for one day: RK4 at the model's own 1 800 s
    substep keeps the l2(h) error a 240 s step gives, within -10 % / +2 %
    (RK4 at 1 800 s damps the grid-scale part of TC2's imbalance), and both
    hold mass to round-off."""
    m = GristModel(GristConfig(level=4))
    m.init()
    assert m.dt_dycore == 1800.0
    s0 = m.swe.copy()
    mass0 = m.dycore.total_mass(s0)
    area = m.grid.area_cell

    def l2_h(dt):
        s = s0.copy()
        for _ in range(round(86400.0 / dt)):
            s = m.dycore.step_rk4(s, dt)
        assert m.dycore.total_mass(s) == pytest.approx(mass0, rel=1e-12)
        return np.sqrt(np.sum(area * (s.h - s0.h) ** 2) / np.sum(area * s0.h**2))

    assert 0.90 <= l2_h(m.dt_dycore) / l2_h(240.0) <= 1.02


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


def test_dynamics_glue_equals_add_at_and_row_sums_bitwise():
    """Cell winds, the tracer step and the physics wind projection read
    the grid's frozen maps and column adds; each equals its literal
    ``np.add.at`` / ``np.sum(axis=-1)`` form bit for bit."""
    from repro.atm.physics import PhysicsTendencies
    from repro.grids.sphere import tangent_basis

    m = GristModel(GristConfig(level=2))
    m.init()
    g, rng = m.grid, np.random.default_rng(4)
    c1, c2 = g.edge_cells[:, 0], g.edge_cells[:, 1]
    east, north = tangent_basis(g.xyz_cell)
    for u in (5.0 * rng.standard_normal(g.n_edges), np.where(rng.random(g.n_edges) < 0.5, -0.0, 0.0)):
        m.swe.u = u
        vec = np.zeros((g.n_cells, 3))
        np.add.at(vec, c1, (g.le * u)[:, None] * (g.xyz_edge - g.xyz_cell[c1]))
        np.add.at(vec, c2, -(g.le * u)[:, None] * (g.xyz_edge - g.xyz_cell[c2]))
        vec = vec * (g.radius / g.area_cell[:, None])
        for got, ref in zip(m._cell_winds(), (np.sum(vec * east, axis=-1), np.sum(vec * north, axis=-1))):
            assert got.tobytes() == ref.tobytes()

        m.tracer = 1.0 + 0.1 * rng.standard_normal(g.n_cells)
        tracer, h = m.tracer, m.swe.h
        flux = g.le * u * (0.5 * (h[c1] + h[c2])) * np.where(u > 0, tracer[c1], tracer[c2])
        dmass = np.zeros(g.n_cells)
        np.add.at(dmass, c1, -flux)
        np.add.at(dmass, c2, flux)
        ref = (tracer * h * g.area_cell + 600.0 * dmass) / (h * g.area_cell)
        m._advect_tracer(600.0)
        assert m.tracer.tobytes() == ref.tobytes()

    nc, nlev = g.n_cells, m.config.nlev
    zeros = np.zeros((nc, nlev))
    du, dv = rng.standard_normal((2, nc, nlev)) * 1e-4
    tend = PhysicsTendencies(dt=zeros, dq=zeros, du=du, dv=dv, gsw=zeros[:, 0], glw=zeros[:, 0],
                             precip=zeros[:, 0], shflx=zeros[:, 0], lhflx=zeros[:, 0],
                             cloud_fraction=zeros[:, 0])
    u0 = m.swe.u.copy()
    vec = du[:, -1][:, None] * east + dv[:, -1][:, None] * north
    vec_e = 0.5 * (vec[c1] + vec[c2])
    m._apply_physics(tend, 600.0)
    assert m.swe.u.tobytes() == (u0 + 600.0 * np.sum(vec_e * g.normal, axis=-1)).tobytes()


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
