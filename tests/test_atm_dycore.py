"""Tests for the shallow-water dycore: conservation and accuracy."""

import numpy as np
import pytest

from repro.atm import (
    ShallowWaterDycore,
    SWEState,
    isolated_mountain,
    williamson_tc2,
)
from repro.utils.units import GRAVITY


@pytest.fixture(scope="module")
def dycore4(icos4):
    return ShallowWaterDycore(icos4)


def _run(dycore, state, hours, cfl=0.4):
    dt = dycore.max_stable_dt(state, cfl=cfl)
    n = int(hours * 3600.0 / dt) + 1
    for _ in range(n):
        state = dycore.step_rk4(state, dt)
    return state, n * dt


class TestTC2:
    def test_initial_state_is_balanced(self, icos4, dycore4):
        """One step of TC2 changes the state only at truncation level."""
        s0 = williamson_tc2(icos4)
        dt = dycore4.max_stable_dt(s0, cfl=0.4)
        s1 = dycore4.step_rk4(s0, dt)
        assert np.abs(s1.h - s0.h).max() / s0.h.mean() < 1e-3
        # Max truncation sits at the pentagon edges (TRSK property).
        assert np.abs(s1.u - s0.u).max() < 0.5
        assert np.sqrt(np.mean((s1.u - s0.u) ** 2)) < 0.1

    def test_steady_state_error_small_after_a_day(self, icos4, dycore4):
        s0 = williamson_tc2(icos4)
        s, _ = _run(dycore4, s0.copy(), hours=24)
        rel_h = np.abs(s.h - s0.h).max() / s0.h.mean()
        assert rel_h < 0.02

    def test_error_decreases_with_resolution(self, icos3, icos4):
        errs = {}
        for grid in (icos3, icos4):
            dy = ShallowWaterDycore(grid)
            s0 = williamson_tc2(grid)
            s, _ = _run(dy, s0.copy(), hours=12)
            errs[grid.level] = np.sqrt(
                np.sum(grid.area_cell * (s.h - s0.h) ** 2) / np.sum(grid.area_cell)
            )
        assert errs[4] < 0.6 * errs[3]


class TestInvariants:
    def test_mass_conserved_to_roundoff(self, icos4, dycore4):
        s = williamson_tc2(icos4)
        m0 = dycore4.total_mass(s)
        s, _ = _run(dycore4, s, hours=12)
        assert dycore4.total_mass(s) == pytest.approx(m0, rel=1e-13)

    def test_energy_drift_bounded(self, icos4, dycore4):
        s = williamson_tc2(icos4)
        e0 = dycore4.total_energy(s)
        s, _ = _run(dycore4, s, hours=24)
        assert abs(dycore4.total_energy(s) - e0) / e0 < 1e-4

    def test_mass_conserved_from_random_state(self, icos4, dycore4):
        rng = np.random.default_rng(0)
        s = SWEState(
            h=2000.0 + 100.0 * rng.standard_normal(icos4.n_cells),
            u=5.0 * rng.standard_normal(icos4.n_edges),
        )
        m0 = dycore4.total_mass(s)
        dt = dycore4.max_stable_dt(s, cfl=0.3)
        for _ in range(20):
            s = dycore4.step_rk4(s, dt)
        assert dycore4.total_mass(s) == pytest.approx(m0, rel=1e-13)

    def test_enstrophy_defined_positive(self, icos4, dycore4):
        s = williamson_tc2(icos4)
        assert dycore4.total_enstrophy(s) > 0


class TestMountain:
    def test_tc5_generates_waves(self, icos3):
        """Flow over the mountain must break zonal symmetry downstream."""
        state, b = isolated_mountain(icos3)
        dy = ShallowWaterDycore(icos3, terrain=b)
        m0 = dy.total_mass(state)
        s, _ = _run(dy, state, hours=48)
        assert dy.total_mass(s) == pytest.approx(m0, rel=1e-12)
        # Meridional velocity (absent initially outside the mountain) grows.
        v_proxy = np.abs(s.u - state.u).max()
        assert v_proxy > 1.0

    def test_terrain_must_be_cell_field(self, icos3):
        with pytest.raises(ValueError):
            ShallowWaterDycore(icos3, terrain=np.zeros(5))


class TestDiffusion:
    def test_diffusion_damps_noise(self, icos4):
        rng = np.random.default_rng(1)
        noise = SWEState(
            h=np.full(icos4.n_cells, 2000.0),
            u=rng.standard_normal(icos4.n_edges),
        )
        dy_visc = ShallowWaterDycore(icos4, diffusion=1e6)
        dy_free = ShallowWaterDycore(icos4, diffusion=0.0)
        dt = 60.0
        s_v, s_f = noise.copy(), noise.copy()
        for _ in range(10):
            s_v = dy_visc.step_rk4(s_v, dt)
            s_f = dy_free.step_rk4(s_f, dt)
        assert np.abs(s_v.u).std() < np.abs(s_f.u).std()


def _composed_tendencies(dycore, state):
    """The operator-by-operator right-hand side over the raw mesh arrays
    (``np.add.at`` scatters, ``np.sum(axis=1)`` row sums): the reference
    the fused :class:`TendencyPlan` must equal bit for bit."""
    g = dycore.grid
    c1, c2 = g.edge_cells[:, 0], g.edge_cells[:, 1]
    t1, t2 = g.edge_dual[:, 0], g.edge_dual[:, 1]

    def scatter(n, first, first_vals, second, second_vals):
        out = np.zeros(n)
        np.add.at(out, first, first_vals)
        np.add.at(out, second, second_vals)
        return out

    def div(x):
        return scatter(g.n_cells, c1, g.le * x, c2, -(g.le * x)) / g.area_cell

    def curl(x):
        return scatter(g.n_dual, t2, g.de * x, t1, -(g.de * x)) / g.area_dual

    h, u = state.h, state.u
    flux = 0.5 * (h[c1] + h[c2]) * u
    dh = -div(flux)
    zeta = curl(u)
    h_dual = np.sum(g.dual_kite * h[g.tri], axis=1) / np.sum(g.dual_kite, axis=1)
    q = (zeta + dycore.f_dual) / np.maximum(h_dual, 1e-8)
    q_e = 0.5 * (q[t1] + q[t2])
    mask = g.edge_edges >= 0
    f_perp = np.sum(g.edge_weights * np.where(mask, flux[np.where(mask, g.edge_edges, 0)], 0.0), axis=1)
    contrib = 0.25 * g.le * g.de * u * u
    ke = scatter(g.n_cells, c1, contrib, c2, contrib) / g.area_cell
    bern = GRAVITY * (h + dycore.terrain) + ke
    du = q_e * f_perp - (bern[c2] - bern[c1]) / g.de
    if dycore.diffusion > 0.0:
        d = div(u)
        lap = (d[c2] - d[c1]) / g.de - (zeta[t2] - zeta[t1]) / g.le
        du = du + dycore.diffusion * lap
    return SWEState(h=dh, u=du)


def _states(grid, rng):
    yield williamson_tc2(grid)
    yield SWEState(2000.0 + 100.0 * rng.standard_normal(grid.n_cells), 5.0 * rng.standard_normal(grid.n_edges))
    # At rest, with velocities of both zero signs: every sum that is zero
    # must keep numpy's sign.
    yield SWEState(np.full(grid.n_cells, 2000.0), np.where(rng.random(grid.n_edges) < 0.5, -0.0, 0.0))


@pytest.mark.parametrize("diffusion", [0.0, 1.0e5])
def test_fused_tendency_is_the_operator_composition_bitwise(icos3, diffusion):
    """One frozen map + stacked gathers == the per-operator add.at / row-sum
    composition, to the last bit, pentagons and signed zeros included."""
    from repro.grids import IcosahedralGrid

    rng = np.random.default_rng(11)
    for grid in (IcosahedralGrid.build(1), icos3):
        _, terrain = isolated_mountain(grid)
        for b in (None, terrain):
            dy = ShallowWaterDycore(grid, terrain=b, diffusion=diffusion)
            for state in _states(grid, rng):
                got, ref = dy.tendencies(state), _composed_tendencies(dy, state)
                assert got.h.tobytes() == ref.h.tobytes()
                assert got.u.tobytes() == ref.u.tobytes()


def test_stacked_rk4_is_the_per_field_rk4_bitwise(icos3):
    """RK4 on the stacked [h | u] vector == RK4 written per field."""
    dy = ShallowWaterDycore(icos3, diffusion=1.0e5)
    state = williamson_tc2(icos3)
    state.u = state.u + np.random.default_rng(5).standard_normal(icos3.n_edges)
    dt = dy.max_stable_dt(state)
    ref = state
    for _ in range(3):
        state = dy.step_rk4(state, dt)
        k1 = _composed_tendencies(dy, ref)
        k2 = _composed_tendencies(dy, SWEState(ref.h + 0.5 * dt * k1.h, ref.u + 0.5 * dt * k1.u))
        k3 = _composed_tendencies(dy, SWEState(ref.h + 0.5 * dt * k2.h, ref.u + 0.5 * dt * k2.u))
        k4 = _composed_tendencies(dy, SWEState(ref.h + dt * k3.h, ref.u + dt * k3.u))
        ref = SWEState(
            h=ref.h + (dt / 6.0) * (k1.h + 2 * k2.h + 2 * k3.h + k4.h),
            u=ref.u + (dt / 6.0) * (k1.u + 2 * k2.u + 2 * k3.u + k4.u),
        )
        assert state.h.tobytes() == ref.h.tobytes()
        assert state.u.tobytes() == ref.u.tobytes()


def test_max_stable_dt_scales_with_resolution(icos3, icos4):
    s3 = williamson_tc2(icos3)
    s4 = williamson_tc2(icos4)
    dt3 = ShallowWaterDycore(icos3).max_stable_dt(s3)
    dt4 = ShallowWaterDycore(icos4).max_stable_dt(s4)
    assert dt3 == pytest.approx(2 * dt4, rel=0.2)
