"""Tests for the conventional physics suite and column machinery."""

import numpy as np
import pytest

from repro.atm import (
    ColumnState,
    ConventionalPhysics,
    PhysicsParams,
    pressure_levels,
    reference_profiles,
    saturation_specific_humidity,
    synthetic_columns,
)
from repro.utils.units import GRAVITY


@pytest.fixture
def columns():
    return synthetic_columns(64, 30, season=1, step=3)


@pytest.fixture
def physics():
    return ConventionalPhysics()


class TestColumnInfrastructure:
    def test_pressure_levels_monotone_top_to_bottom(self):
        p = pressure_levels(30)
        assert len(p) == 30
        assert np.all(np.diff(p) > 0)
        assert p[-1] == pytest.approx(101325.0)
        with pytest.raises(ValueError):
            pressure_levels(1)

    def test_reference_profiles_physical(self):
        p = pressure_levels(30)
        t, q = reference_profiles(p)
        assert 200.0 < t.min() < 230.0       # stratosphere
        assert 280.0 < t[-1] < 295.0         # surface
        assert np.all(q >= 0)
        assert q[-1] > q[0]                  # moisture concentrated low

    def test_qsat_increases_with_temperature(self):
        p = np.full(5, 1e5)
        t = np.array([250.0, 270.0, 290.0, 300.0, 310.0])
        qs = saturation_specific_humidity(t, p)
        assert np.all(np.diff(qs) > 0)
        # ~290 K at the surface: qsat ~ 12 g/kg.
        assert qs[2] == pytest.approx(0.012, rel=0.2)

    def test_column_state_validation(self):
        p = pressure_levels(10)
        good = np.zeros((4, 10))
        with pytest.raises(ValueError):
            ColumnState(good, good, good, np.zeros((4, 9)), p, np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            ColumnState(good, good, good, good, p, np.zeros(3), np.zeros(4))

    def test_as_channels_layout(self, columns):
        chan = columns.as_channels()
        assert chan.shape == (64, 5, 30)
        assert np.array_equal(chan[:, 2], columns.t)
        assert np.array_equal(chan[0, 4], columns.p)

    def test_synthetic_columns_deterministic(self):
        a = synthetic_columns(8, 10, 0, 0)
        b = synthetic_columns(8, 10, 0, 0)
        assert np.array_equal(a.t, b.t)
        c = synthetic_columns(8, 10, 0, 1)
        assert not np.array_equal(a.t, c.t)


class TestRadiation:
    def test_night_side_gets_no_shortwave(self, physics, columns):
        columns.coszr[:] = 0.0
        gsw, glw, _ = physics.radiation(columns, np.zeros(columns.ncol))
        assert np.all(gsw == 0.0)
        assert np.all(glw > 50.0)  # longwave continues at night

    def test_clouds_reduce_shortwave_increase_longwave(self, physics, columns):
        columns.coszr[:] = 0.8
        clear = physics.radiation(columns, np.zeros(columns.ncol))
        cloudy = physics.radiation(columns, np.ones(columns.ncol))
        assert np.all(cloudy[0] < clear[0])
        assert np.all(cloudy[1] > clear[1])

    def test_magnitudes_earthlike(self, physics, columns):
        columns.coszr[:] = 1.0
        gsw, glw, dt_rad = physics.radiation(columns, np.full(columns.ncol, 0.3))
        assert 500.0 < gsw.mean() < 1000.0
        assert 150.0 < glw.mean() < 450.0
        # Radiative cooling ~ 1-2 K/day.
        assert abs(dt_rad.mean()) * 86400.0 < 5.0


class TestSurfaceLayer:
    def test_warm_skin_drives_positive_sensible_flux(self, physics, columns):
        columns.tskin = columns.t[:, -1] + 5.0
        _, _, _, _, shflx, _ = physics.surface_layer(columns)
        assert np.all(shflx > 0)

    def test_drag_opposes_wind(self, physics, columns):
        du, dv, _, _, _, _ = physics.surface_layer(columns)
        assert np.all(du[:, -1] * columns.u[:, -1] <= 0)
        assert np.all(dv[:, -1] * columns.v[:, -1] <= 0)
        # Only the lowest level feels the surface directly.
        assert np.all(du[:, :-1] == 0)

    def test_latent_flux_nonnegative(self, physics, columns):
        _, _, _, _, _, lhflx = physics.surface_layer(columns)
        assert np.all(lhflx >= 0)


class TestConvection:
    def test_stable_column_untouched(self, physics):
        p = pressure_levels(20)
        t_ref, q_ref = reference_profiles(p)
        # An isothermal column is absolutely stable.
        state = ColumnState(
            u=np.zeros((4, 20)), v=np.zeros((4, 20)),
            t=np.full((4, 20), 260.0), q=np.tile(q_ref * 0.1, (4, 1)),
            p=p, tskin=np.full(4, 260.0), coszr=np.zeros(4),
        )
        dT, dQ, precip = physics.convective_adjustment(state, 600.0)
        assert np.allclose(dT, 0.0)
        assert np.allclose(precip, 0.0)

    def test_unstable_column_adjusts_toward_critical(self, physics):
        p = pressure_levels(20)
        t_ref, q_ref = reference_profiles(p)
        state = ColumnState(
            u=np.zeros((1, 20)), v=np.zeros((1, 20)),
            t=t_ref[None, :].copy(), q=q_ref[None, :].copy(),
            p=p, tskin=np.array([300.0]), coszr=np.zeros(1),
        )
        state.t[0, -1] += 15.0  # superadiabatic near the surface
        dT, _, _ = physics.convective_adjustment(state, 600.0)
        assert dT[0, -1] < 0     # surface level cools
        assert dT[0, :-1].max() > 0  # heat deposited aloft

    def test_adjustment_conserves_column_enthalpy(self, physics):
        p = pressure_levels(20)
        t_ref, q_ref = reference_profiles(p)
        state = ColumnState(
            u=np.zeros((1, 20)), v=np.zeros((1, 20)),
            t=t_ref[None, :].copy(), q=q_ref[None, :].copy(),
            p=p, tskin=np.array([300.0]), coszr=np.zeros(1),
        )
        state.t[0, -1] += 10.0
        dT, _, _ = physics.convective_adjustment(state, 600.0)
        # Pairwise swaps: the plain sum of dT vanishes.
        assert abs(dT.sum()) < 1e-10 * np.abs(dT).max() * dT.size


class TestCondensation:
    def test_supersaturation_rains_out(self, physics):
        p = pressure_levels(10)
        t = np.full((2, 10), 285.0)
        qsat = saturation_specific_humidity(t, p[None, :])
        state = ColumnState(
            u=np.zeros((2, 10)), v=np.zeros((2, 10)), t=t,
            q=qsat * 1.5, p=p, tskin=np.full(2, 285.0), coszr=np.zeros(2),
        )
        dT, dQ, precip, cloud = physics.large_scale_condensation(state, 600.0)
        assert np.all(precip > 0)
        assert np.all(dQ <= 0)
        assert np.all(dT >= 0)  # latent heating
        assert np.all(cloud > 0.5)

    def test_dry_column_produces_nothing(self, physics):
        p = pressure_levels(10)
        state = ColumnState(
            u=np.zeros((2, 10)), v=np.zeros((2, 10)),
            t=np.full((2, 10), 285.0), q=np.zeros((2, 10)),
            p=p, tskin=np.full(2, 285.0), coszr=np.zeros(2),
        )
        _, dQ, precip, cloud = physics.large_scale_condensation(state, 600.0)
        assert np.all(precip == 0)
        assert np.all(dQ == 0)
        assert np.all(cloud == 0)

    def test_precip_matches_column_moisture_loss(self, physics):
        p = pressure_levels(15)
        t = np.full((1, 15), 290.0)
        qsat = saturation_specific_humidity(t, p[None, :])
        state = ColumnState(
            u=np.zeros((1, 15)), v=np.zeros((1, 15)), t=t,
            q=qsat * 1.2, p=p, tskin=np.full(1, 290.0), coszr=np.zeros(1),
        )
        _, dQ, precip, _ = physics.large_scale_condensation(state, 600.0)
        expected = -np.trapezoid(dQ[0], p) / GRAVITY
        assert precip[0] == pytest.approx(expected, rel=1e-12)


class TestFullSuite:
    def test_compute_returns_all_fields(self, physics, columns):
        tend = physics.compute(columns, 600.0)
        for arr in (tend.du, tend.dv, tend.dt, tend.dq):
            assert arr.shape == (columns.ncol, columns.nlev)
            assert np.all(np.isfinite(arr))
        for arr in (tend.gsw, tend.glw, tend.precip, tend.cloud_fraction):
            assert arr.shape == (columns.ncol,)
        assert np.all(tend.precip >= 0)
        assert np.all((tend.cloud_fraction >= 0) & (tend.cloud_fraction <= 1))

    def test_compute_rejects_bad_dt(self, physics, columns):
        with pytest.raises(ValueError):
            physics.compute(columns, 0.0)

    def test_deterministic(self, physics, columns):
        a = physics.compute(columns, 600.0)
        b = physics.compute(columns.copy(), 600.0)
        assert np.array_equal(a.dt, b.dt)
        assert np.array_equal(a.precip, b.precip)

    def test_custom_params_change_answer(self, columns):
        default = ConventionalPhysics().compute(columns, 600.0)
        dark = ConventionalPhysics(PhysicsParams(albedo=0.9)).compute(columns, 600.0)
        assert dark.gsw.mean() < default.gsw.mean()


class TestBoundaryLayer:
    def test_mixing_smooths_lower_column(self, physics):
        from repro.atm import pressure_levels

        p = pressure_levels(20)
        rng = np.random.default_rng(0)
        t = 280.0 + np.zeros((8, 20))
        t[:, -5:] += rng.standard_normal((8, 5)) * 4.0  # noisy PBL
        state = ColumnState(
            u=np.zeros((8, 20)), v=np.zeros((8, 20)), t=t,
            q=np.full((8, 20), 1e-3), p=p,
            tskin=np.full(8, 285.0), coszr=np.zeros(8),
        )
        du, dv, dt_t, dq = physics.boundary_layer_diffusion(state, 1800.0)
        t_new = t + 1800.0 * dt_t
        assert t_new[:, -5:].std() < t[:, -5:].std()

    def test_conserves_column_mean_roughly(self, physics):
        """Diffusion redistributes; with near-uniform dz the column mean
        barely moves."""
        from repro.atm import pressure_levels

        p = pressure_levels(16)
        rng = np.random.default_rng(1)
        t = 270.0 + rng.standard_normal((4, 16)) * 3.0
        state = ColumnState(
            u=np.zeros((4, 16)), v=np.zeros((4, 16)), t=t,
            q=np.full((4, 16), 1e-3), p=p,
            tskin=np.full(4, 285.0), coszr=np.zeros(4),
        )
        _, _, dt_t, _ = physics.boundary_layer_diffusion(state, 1800.0)
        drift = np.abs((1800.0 * dt_t).mean(axis=1))
        assert np.all(drift < 0.5)

    def test_free_troposphere_barely_touched(self, physics):
        from repro.atm import pressure_levels

        p = pressure_levels(20)
        rng = np.random.default_rng(2)
        t = 260.0 + rng.standard_normal((4, 20)) * 2.0
        state = ColumnState(
            u=np.zeros((4, 20)), v=np.zeros((4, 20)), t=t,
            q=np.full((4, 20), 1e-3), p=p,
            tskin=np.full(4, 285.0), coszr=np.zeros(4),
        )
        _, _, dt_t, _ = physics.boundary_layer_diffusion(state, 1800.0)
        upper = np.abs(dt_t[:, :8]).max()
        lower = np.abs(dt_t[:, -4:]).max()
        assert lower > 3.0 * upper

    def test_included_in_full_suite(self, physics, columns):
        """The full compute now mixes momentum above the surface level."""
        tend = physics.compute(columns, 600.0)
        assert np.abs(tend.du[:, -3]).max() > 0  # interior level touched


def _seeded_state(ncol, nlev, seed):
    """Noisy columns: unstable lapse pairs, supersaturated and dry levels,
    night columns, and signed zeros in the lowest winds."""
    rng = np.random.default_rng(seed)
    p = pressure_levels(nlev)
    t_ref, q_ref = reference_profiles(p)
    q = q_ref * rng.uniform(0.3, 1.8, (ncol, nlev))
    q[:3] = 0.0
    u = rng.normal(0.0, 10.0, (ncol, nlev))
    u[:4, -1] = -0.0
    t = t_ref + rng.normal(0.0, 4.0, (ncol, nlev))
    t[-1] = 250.0  # isothermal: a column convection leaves alone
    return ColumnState(
        u=u, v=rng.normal(0.0, 10.0, (ncol, nlev)), t=t, q=q, p=p,
        tskin=288.0 + rng.normal(0.0, 5.0, ncol),
        coszr=np.clip(rng.uniform(-0.5, 1.0, ncol), 0.0, 1.0),
    )


def _digests(physics, state, dt_s=900.0):
    import hashlib

    def sha(arrays):
        return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16] for a in arrays]

    tend = physics.compute(state, dt_s)
    return {
        "compute": sha(vars(tend).values()),
        "large_scale_condensation": sha(physics.large_scale_condensation(state, dt_s)),
        "surface_layer": sha(physics.surface_layer(state)),
    }


# SHA-256 prefixes recorded from the (ncol, nlev) row-major suite, before it
# ran level-major.  Every conventional state digest rests on these bytes: a
# failing pin is a real change of the physics, not a constant to re-record.
_PINNED = {
    (300, 30): {
        "compute": [
            "ef1dcb2a452bcdaa", "5617688e1f95bb54", "5ae17ed07fb2ff2b", "90e6dd4522dce541",
            "4bcde7a43aa11899", "5068fc162553ad77", "8b43caccc0d59593", "42156df7ffc743a8",
            "2c405f898acd5816", "e18cfe03939f5d1b",
        ],
        "large_scale_condensation": [
            "3184c2646ded85d9", "36ac3adf36e04923", "d1bf3ad637d5250b", "42156df7ffc743a8",
        ],
        "surface_layer": [
            "57db1e78c182760f", "5af385dc01b4642c", "24226a4a44812eb8", "bb667eb3bafceacb",
            "2c405f898acd5816", "e18cfe03939f5d1b",
        ],
    },
    (97, 12): {
        "compute": [
            "82c2c48d6749006a", "6c6a2908bd490a7b", "3b37e6df9926bd10", "786f544a947e9d13",
            "8cfa8277bd5b8e55", "d2d9cb7e8fb2c61f", "fbf08e6150c746dc", "1f88cf76cf5fb46c",
            "b6d7e46bd69d1a07", "6e0a82644753119b",
        ],
        "large_scale_condensation": [
            "fe4cc15e5daa2a77", "3cc5017b2829d05c", "3eaa37b95e2fe514", "1f88cf76cf5fb46c",
        ],
        "surface_layer": [
            "cb7dd8fd48d5b882", "07c4aa4e6468719b", "e7cb29f61e991a09", "b74196ab62a19bfc",
            "b6d7e46bd69d1a07", "6e0a82644753119b",
        ],
    },
}


class TestBitsPinned:
    @pytest.mark.parametrize("shape", sorted(_PINNED))
    def test_outputs_pinned(self, physics, shape):
        state = _seeded_state(*shape, seed=sum(shape))
        assert _digests(physics, state) == _PINNED[shape]


@pytest.fixture(scope="module")
def procpool():
    from repro.pp import ProcPool

    space = ProcPool(2)
    yield space
    space.runtime.shutdown()


class TestCutIndependence:
    @pytest.mark.parametrize("shape", sorted(_PINNED))
    def test_compute_identical_on_every_cut(self, procpool, shape):
        """A kernel reads its chunk as a slice, so chunks that start past
        column 0 (which the one-lane serial path never runs) must give the
        same bytes: ``Serial``, 7 and 64 lanes, and a 2-worker pool."""
        from repro.component import ComponentContext
        from repro.pp import ExecutionSpace, Serial

        state = _seeded_state(*shape, seed=11)
        spaces = [Serial(), ExecutionSpace("cut", lanes=7), ExecutionSpace("cut", lanes=64), procpool]
        dispatched = procpool.runtime.stats.dispatches
        got = [_digests(ConventionalPhysics(ctx=ComponentContext(space)), state) for space in spaces]
        assert all(g == got[0] for g in got[1:])
        assert procpool.runtime.stats.dispatches > dispatched  # the pool ran the chunks
