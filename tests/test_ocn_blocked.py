"""The cache-blocked ocean substep is the whole-box substep, bit for bit.

Slab twin (1-level slabs vs one whole-box slab), an in-test whole-box
Thomas oracle for the factor/solve pair, the running-sum pressure vs
``np.cumsum``, the atmosphere's shared factorisation, and the frozen tables'
lifetime (built once, on first use, rebuilt when ``dt`` changes).
"""

import numpy as np
import pytest

from repro.atm import ColumnState, ConventionalPhysics, pressure_levels
from repro.esm import first_difference
from repro.grids import TripolarGrid
from repro.ice.kernels import thermo_kernel
from repro.ocn import (
    BaroclinicSolver,
    BarotropicSolver,
    BarotropicState,
    CGridMetrics,
    ColumnDiffusion,
    LicomConfig,
    LicomModel,
    TracerSolver,
    implicit_vertical_diffusion,
    linear_eos,
)
from repro.ocn.metrics import level_slabs
from repro.utils.units import GRAVITY, RHO_OCEAN


def whole_box_thomas(field, kappa, dz, dt, mask3d=None):
    """The single-field whole-box solve this PR replaced (signed textbook form)."""
    nlev = field.shape[0]
    if mask3d is not None:
        kappa = np.where(mask3d[:-1] & mask3d[1:], kappa, 0.0)
    dz_col = dz.reshape((-1,) + (1,) * (field.ndim - 1))
    dzi = 0.5 * (dz_col[:-1] + dz_col[1:])
    upper, lower = np.zeros_like(field), np.zeros_like(field)
    upper[:-1] = dt * kappa / (dz_col[:-1] * dzi)
    lower[1:] = dt * kappa / (dz_col[1:] * dzi)
    a, b, c = -lower, 1.0 + lower + upper, -upper
    cp, dp, out = np.zeros_like(field), np.zeros_like(field), np.empty_like(field)
    cp[0], dp[0] = c[0] / b[0], field[0] / b[0]
    for k in range(1, nlev):
        denom = b[k] - a[k] * cp[k - 1]
        cp[k] = c[k] / denom
        dp[k] = (field[k] - a[k] * dp[k - 1]) / denom
    out[-1] = dp[-1]
    for k in range(nlev - 2, -1, -1):
        out[k] = dp[k] - cp[k] * out[k + 1]
    return out if mask3d is None else np.where(mask3d, out, field)


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def stack():
    grid = TripolarGrid.build(36, 24, n_levels=7)
    return CGridMetrics.build(grid), grid.levels_mask(), np.diff(grid.z_interfaces), grid


# -- (i) slab twin --------------------------------------------------------------------


def _forced_state(scheme, n_steps=6):
    m = LicomModel(LicomConfig(nlon=144, nlat=96, n_levels=12))
    m.init()
    m.tracers.advection_scheme = scheme
    rng = np.random.default_rng(11)
    shape = m.metrics.shape
    m.import_state({
        "taux": 0.1 * rng.standard_normal(shape), "tauy": 0.05 * rng.standard_normal(shape),
        "heat_flux": 80.0 * rng.standard_normal(shape),
        "fresh_flux": 1e-5 * rng.standard_normal(shape),
    })
    m.t = m.t + np.where(m.mask3d, 0.3 * rng.standard_normal(m.mask3d.shape), 0.0)
    m.run(n_steps)
    return m.state()


@pytest.mark.parametrize("scheme", ["upwind", "muscl"])
def test_slab_twin_one_level_slabs_equal_whole_box(monkeypatch, scheme):
    shape = (12, 96, 144)
    assert len(level_slabs(shape)) >= 3  # the default really is multi-slab here
    monkeypatch.setattr("repro.ocn.metrics.SLAB_ELEMENTS", 1)
    assert len(level_slabs(shape)) == 12
    thin = _forced_state(scheme)
    monkeypatch.setattr("repro.ocn.metrics.SLAB_ELEMENTS", 10**9)
    assert len(level_slabs(shape)) == 1
    whole = _forced_state(scheme)
    assert first_difference(thin, whole) is None
    assert np.abs(thin["u"]).max() > 0  # the forcing did move the ocean


def test_small_ocean_is_one_slab():
    def levels(shape):
        return [np.arange(shape[0])[sl].tolist() for sl in level_slabs(shape)]

    assert levels((6, 32, 48)) == [[0, 1, 2, 3, 4, 5]]      # every CI / bypass-workload ocean
    assert levels((7, 200, 120)) == [[0, 1], [2, 3], [4, 5], [6]]
    assert levels((3, 400, 300)) == [[0], [1], [2]]         # a level larger than a slab


# -- (ii) oracle ----------------------------------------------------------------------


@pytest.mark.parametrize("masked", [False, True])
def test_factor_solve_two_rhs_equal_whole_box_thomas(stack, masked):
    _, mask3d, dz, _ = stack
    mask = mask3d if masked else None
    rng = np.random.default_rng(3)
    kappa = 10.0 ** rng.uniform(-5, -1, (len(dz) - 1,) + mask3d.shape[1:])
    t = 10.0 + 8.0 * rng.standard_normal(mask3d.shape)
    s = 35.0 + rng.standard_normal(mask3d.shape)
    column = ColumnDiffusion(dz, mask)
    factors = column.factor(kappa, 7200.0)
    for field in (t, s):
        ref = whole_box_thomas(field, kappa, dz, 7200.0, mask)
        assert same_bytes(column.solve(factors, field), ref)
        assert same_bytes(implicit_vertical_diffusion(field, kappa, dz, 7200.0, mask), ref)
    assert not same_bytes(column.solve(factors, t), t)


def test_running_sum_pressure_equals_cumsum_form(stack):
    m, mask3d, dz, _ = stack
    rng = np.random.default_rng(4)
    t = 10.0 + 8.0 * rng.standard_normal(mask3d.shape)
    s = 35.0 + rng.standard_normal(mask3d.shape)
    rho_anom = linear_eos(t, s) - RHO_OCEAN
    dz3 = dz.reshape(-1, 1, 1)
    ref = GRAVITY * (np.cumsum(rho_anom * dz3, axis=0) - 0.5 * rho_anom * dz3)
    solver = BaroclinicSolver(m, mask3d, dz)
    rho, p = solver.density_pressure(t, s)
    assert same_bytes(p, ref) and same_bytes(solver.pressure(t, s), ref)
    assert same_bytes(rho, linear_eos(t, s))


# -- (iii) the atmosphere's shared factorisation -------------------------------------------


def test_boundary_layer_diffusion_factors_once_and_equals_four_solves(monkeypatch):
    rng = np.random.default_rng(5)
    ncol, nlev = 9, 20
    state = ColumnState(
        u=rng.standard_normal((ncol, nlev)), v=rng.standard_normal((ncol, nlev)),
        t=280.0 + 4.0 * rng.standard_normal((ncol, nlev)),
        q=1e-3 * rng.random((ncol, nlev)), p=pressure_levels(nlev),
        tskin=np.full(ncol, 285.0), coszr=np.zeros(ncol),
    )
    calls = []
    factor = ColumnDiffusion.factor

    def spy(self, kappa, dt):
        calls.append((self.dz, kappa, dt))
        return factor(self, kappa, dt)

    monkeypatch.setattr(ColumnDiffusion, "factor", spy)
    tendencies = ConventionalPhysics().boundary_layer_diffusion(state, 1800.0)
    assert len(calls) == 1
    dz, kappa, dt = calls[0]
    for got, field in zip(tendencies, (state.u, state.v, state.t, state.q)):
        alone = whole_box_thomas(field.T.copy(), kappa, dz, dt)
        assert same_bytes(got, (alone.T - field) / dt)


# -- (iv) frozen tables ---------------------------------------------------------------


def test_rotation_tables_built_once_and_rebuilt_on_new_dt(stack):
    m, _, _, grid = stack
    solver = BarotropicSolver(m, grid.depth)
    state = BarotropicState.zeros(m.shape)
    state.eta = np.where(m.mask_c, 0.1 * np.cos(grid.lat), 0.0)
    state = solver.step(state, 30.0)
    tables = solver.rotation.tables(30.0)
    state = solver.step(state, 30.0)
    assert solver.rotation.tables(30.0) is tables
    solver.step(state, 60.0)
    rebuilt = solver.rotation.tables(60.0)
    assert rebuilt is not tables
    assert same_bytes(rebuilt[0], 2.0 * tables[0])  # f_u dt, dt doubled


def test_tracer_tables_are_lazy_and_built_once(stack):
    m, mask3d, dz, _ = stack
    solver = TracerSolver(m, mask3d, dz)
    assert not {"vol", "neigh"} & set(vars(solver))        # nothing 3-D built at construction
    assert "lap_scale" not in vars(CGridMetrics.build(stack[3]))
    t = np.where(mask3d, 10.0, 0.0)
    s = np.where(mask3d, 35.0, 0.0)
    zero = np.zeros(mask3d.shape)
    solver.step(t, s, zero, zero, 600.0)
    built = {name: vars(solver)[name] for name in ("vol", "neigh")}
    geometry = solver.column._geometry
    solver.step(t, s, zero, zero, 900.0)
    assert all(vars(solver)[name] is arr for name, arr in built.items())
    assert solver.column._geometry is geometry
    assert same_bytes(built["neigh"][:, 1:-1], sum(
        np.roll(mask3d, sh, axis=ax).astype(float) for sh in (1, -1) for ax in (1, 2))[:, 1:-1])


# -- satellites -----------------------------------------------------------------------


def test_tracer_solver_validates_at_construction(stack):
    m, mask3d, dz, _ = stack
    with pytest.raises(ValueError, match="one entry per level"):
        TracerSolver(m, mask3d, dz[:-1])
    with pytest.raises(ValueError, match="advection_scheme"):
        TracerSolver(m, mask3d, dz, advection_scheme="upwnd")
    with pytest.raises(ValueError, match="horizontal grid"):
        TracerSolver(m, mask3d[:, :-1], dz)


def test_thermo_kernel_slice_views_equal_index_gather():
    rng = np.random.default_rng(6)
    shape = (10, 14)
    fields = [rng.random(shape) * s for s in (2.0, 1.0, -5.0, 200.0, 300.0, -3.0)]
    freezing, ocean = rng.random(shape) < 0.4, rng.random(shape) < 0.8
    args = (*fields, freezing, ocean, 3600.0, 2.0, 0.05)

    def run(tiles):
        outs = [np.full(shape, np.nan) for _ in range(3)]
        for yi, xi in tiles:
            thermo_kernel(yi, xi, *outs, *args)
        return outs

    whole = run([(np.arange(10), np.arange(14))])
    tiled = run([(np.arange(y, y + 5), np.arange(x, x + 7)) for y in (0, 5) for x in (0, 7)])
    # Strided / permuted index arrays are not ranges: the np.ix_ fallback.
    gathered = run([(np.arange(p, 10, 2), np.array([13, 0, 5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12]))
                    for p in (0, 1)])
    for a, b, c in zip(whole, tiled, gathered):
        assert same_bytes(a, b) and same_bytes(a, c)
