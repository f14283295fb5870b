"""The in-place horizontal stencils are pinned bit for bit to the shift/where ones.

The oracle below is the ocean's horizontal half as it stood before its stencils
ran as slice ops with ``out=`` / in-place arithmetic: every shifted neighbour a
fresh ``np.concatenate`` copy, every mask a fresh ``np.where``, and T, S, u, v
and the two sea-ice fields one field at a time.  Every case compares raw bytes,
so a ``-0.0`` that turns into ``+0.0`` fails.
"""

import numpy as np
import pytest

from repro.grids import TripolarGrid
from repro.ice.model import CiceModel
from repro.ocn import (
    BaroclinicSolver,
    BarotropicSolver,
    BarotropicState,
    CGridMetrics,
    LicomConfig,
    LicomModel,
    TracerSolver,
    divergence_c,
    grad_x,
    grad_y,
    linear_eos,
)
from repro.ocn import metrics
from repro.ocn.metrics import CoriolisRotation
from repro.ocn.mixing import column_kappa
from repro.ocn.model import BAROTROPIC_SUBSTEPS, T_FREEZE
from repro.utils.units import CP_OCEAN, GRAVITY, RHO_OCEAN

# -- the shift/where oracle ------------------------------------------------------------


def shift_x(a, k):
    return np.concatenate([a[..., k:], a[..., :k]], axis=-1)


def shift_y(a, k):
    if k > 0:
        return np.concatenate([a[..., k:, :]] + [a[..., -1:, :]] * k, axis=-2)
    return np.concatenate([a[..., :1, :]] * -k + [a[..., :k, :]], axis=-2)


def south_zero(a):
    return np.concatenate([np.zeros_like(a[..., :1, :]), a[..., :-1, :]], axis=-2)


def neighbour_sum(f):
    return shift_x(f, 1) + shift_x(f, -1) + shift_y(f, 1) + shift_y(f, -1)


def face_divergence(flux_u, flux_v):
    return (flux_u - shift_x(flux_u, -1)) + (flux_v - south_zero(flux_v))


def rotation_ref(m, u_star, v_star, dt):
    f_c = m.f_c
    f_v = np.zeros_like(f_c)
    f_v[:-1] = 0.5 * (f_c[:-1] + f_c[1:])
    fdt_u, fdt_v = 0.5 * (f_c + shift_x(f_c, 1)) * dt, f_v * dt
    v_south, u_north = south_zero(v_star), shift_y(u_star, 1)
    v_at_u = 0.25 * (v_star + v_south + shift_x(v_star, 1) + shift_x(v_south, 1))
    u_at_v = 0.25 * (u_star + shift_x(u_star, -1) + u_north + shift_x(u_north, -1))
    return (u_star + fdt_u * v_at_u) / (1.0 + fdt_u**2), (v_star - fdt_v * u_at_v) / (1.0 + fdt_v**2)


def divergence_c_ref(m, flux_u, flux_v):
    fu = np.where(m.mask_u, flux_u, 0.0)
    fv = np.where(m.mask_v, flux_v, 0.0)
    return np.where(m.mask_c, face_divergence(fu, fv) / m.area, 0.0)


def grad_x_ref(m, phi):
    return np.where(m.mask_u, (shift_x(phi, 1) - phi) / m.dxu, 0.0)


def grad_y_ref(m, phi):
    g = np.zeros_like(phi)
    g[..., :-1, :] = (phi[..., 1:, :] - phi[..., :-1, :]) / m.dyv[:-1]
    return np.where(m.mask_v, g, 0.0)


def barotropic_ref(solver, state, dt, wind):
    m = solver.metrics
    eta, u, v = state.eta, state.u, state.v
    eta_new = eta - dt * divergence_c_ref(m, u * solver.h_u * m.ly_east, v * solver.h_v * m.lx_north)
    eta_new = np.where(m.mask_c, eta_new, 0.0)
    du = -GRAVITY * grad_x_ref(m, eta_new) - solver.drag * u + wind[0]
    dv = -GRAVITY * grad_y_ref(m, eta_new) - solver.drag * v + wind[1]
    u_new, v_new = rotation_ref(m, u + dt * du, v + dt * dv, dt)
    norm = float(np.sqrt(np.sum(m.area * eta_new**2, dtype=np.float64) / np.sum(m.area, dtype=np.float64)))
    return (eta_new, np.where(m.mask_u, u_new, 0.0), np.where(m.mask_v, v_new, 0.0)), norm


def baroclinic_ref(solver, u, v, t, s, dt, taux, tauy):
    m, mask_u3, mask_v3 = solver.metrics, solver.mask_u3, solver.mask_v3

    def laplacian(f, mask):
        fm = np.where(mask, f, 0.0)
        return np.where(mask, (neighbour_sum(fm) - 4.0 * fm) / m.lap_scale, 0.0)

    rho, p = solver.density_pressure(t, s)
    du = -grad_x_ref(m, p) / RHO_OCEAN + solver.horizontal_viscosity * laplacian(u, mask_u3)
    dv = -grad_y_ref(m, p) / RHO_OCEAN + solver.horizontal_viscosity * laplacian(v, mask_v3)
    du[0] += np.where(m.mask_u, taux / (RHO_OCEAN * solver.dz[0]), 0.0)
    dv[0] += np.where(m.mask_v, tauy / (RHO_OCEAN * solver.dz[0]), 0.0)
    du -= solver.bottom_drag * u
    dv -= solver.bottom_drag * v
    u_new, v_new = rotation_ref(m, u + dt * du, v + dt * dv, dt)
    kappa = column_kappa(rho, u_new, v_new, solver.dz, solver.mixing)
    u_new = solver.friction_u.solve(solver.friction_u.factor(kappa, dt), u_new)
    v_new = solver.friction_v.solve(solver.friction_v.factor(kappa, dt), v_new)
    return np.where(mask_u3, u_new, 0.0), np.where(mask_v3, v_new, 0.0)


def face_value_ref(c, vel, shift, scheme):
    c_p1 = shift(c, 1)
    if scheme == "upwind":
        return np.where(vel > 0, c, c_p1)
    c_m1, c_p2 = shift(c, -1), shift(c, 2)

    def minmod(a, b):
        return np.where(a * b > 0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)

    return np.where(vel > 0, c + 0.5 * minmod(c - c_m1, c_p1 - c), c_p1 - 0.5 * minmod(c_p1 - c, c_p2 - c_p1))


def advect_ref(solver, c, u, v, dt, scheme):
    m, dz = solver.metrics, solver.dz.reshape(-1, 1, 1)
    flux_u = np.where(solver.mask_u3, u * face_value_ref(c, u, shift_x, scheme), 0.0) * m.ly_east * dz
    flux_v = np.where(solver.mask_v3, v * face_value_ref(c, v, shift_y, scheme), 0.0) * m.lx_north * dz
    return np.where(solver.mask3d, c - dt * face_divergence(flux_u, flux_v) / solver.vol, c)


def diffuse_ref(solver, c, dt):
    wet = solver.mask3d
    cm = np.where(wet, c, 0.0)
    lap = (neighbour_sum(cm) - neighbour_sum(wet.astype(c.dtype)) * cm) / solver.metrics.lap_scale
    return np.where(wet, c + dt * solver.horizontal_diffusivity * lap, c)


def tracer_step_ref(solver, t, s, u, v, dt, heat, fresh):
    t_new, s_new = (diffuse_ref(solver, advect_ref(solver, c, u, v, dt, solver.advection_scheme), dt)
                    for c in (t, s))
    factors = solver.column.factor(column_kappa(linear_eos(t_new, s_new), u, v, solver.dz, solver.mixing), dt)
    t_new, s_new = solver.column.solve(factors, t_new), solver.column.solve(factors, s_new)
    surf = solver.mask3d[0]
    t_new[0] = np.where(surf, t_new[0] + heat * dt / (RHO_OCEAN * CP_OCEAN * solver.dz[0]), t_new[0])
    s_new[0] = np.where(surf, s_new[0] + -s_new[0] * fresh * dt / (RHO_OCEAN * solver.dz[0]), s_new[0])
    return t_new, s_new


def ice_ref(ice, dt):
    m, cfg = ice.metrics, ice.config
    u = np.where(m.mask_u, cfg.drift_ocean_factor * ice.u_drift, 0.0)
    v = np.where(m.mask_v, cfg.drift_ocean_factor * ice.v_drift, 0.0)
    out = []
    for c in (ice.thickness, ice.concentration):
        flux_u = u * np.where(u > 0, c, shift_x(c, 1)) * m.ly_east
        flux_v = v * np.where(v > 0, c, shift_y(c, 1)) * m.lx_north
        c_new = c - dt * face_divergence(flux_u, flux_v) / m.area
        out.append(np.where(ice.grid.mask, np.maximum(c_new, 0.0), 0.0))
    return out[0], np.clip(out[1], 0.0, 1.0)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def has_negative_zero(a):
    return bool((np.signbit(a) & (a == 0)).any())


# -- cases ----------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    g = TripolarGrid.build(36, 24, n_levels=5)
    m = CGridMetrics.build(g)
    assert (~m.mask_c).any() and m.mask_c.any()            # land and ocean
    assert not m.mask_v[-1].any()                           # the closed seam row
    assert (m.mask_u[:, -1]).any()                          # faces across the periodic wrap
    return g


def _fields(shape, dtype, seed, scale=1.0):
    """Random values with signed-zero patches on the first / last rows and on
    the wrap columns, and a scattering of -0.0 elsewhere (open faces included)."""
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal(shape)
    a[rng.random(shape) < 0.05] = -0.0
    a[..., :1, 2:9] = -0.0
    a[..., -1:, 4:7] = -0.0
    a[..., 3:7, :1] = -0.0
    a[..., 5:9, -1:] = -0.0
    return a.astype(dtype)


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
def test_shared_helpers(grid, dtype):
    """Each helper on its own, so that no later add can absorb a changed bit."""
    m = CGridMetrics.build(grid).astype(dtype)
    shape = (2, 3) + m.shape
    a, b = _fields(shape, dtype, 30), _fields(shape, dtype, 31)
    a[..., 0, ::2], a[..., 0, 1::2], b[..., 0, :] = -0.0, 0.0, -0.0  # (-0 - +0) + -0 on the first row
    assert same_bits(metrics.face_divergence(a.copy(), b), face_divergence(a, b))
    assert same_bits(metrics.neighbour_sum(a, np.empty_like(a)), neighbour_sum(a))
    for weight in (4.0, neighbour_sum(m.mask_c.astype(dtype))):
        fm = np.where(m.mask_u, a, 0.0)
        assert same_bits(m.laplacian(a, ~m.mask_u, weight), (neighbour_sum(fm) - weight * fm) / m.lap_scale)
    u, v = b[0], _fields(shape[1:], dtype, 32)
    east, north = metrics.upwind_faces(a, u, v)
    assert same_bits(east, face_value_ref(a, u, shift_x, "upwind"))
    assert same_bits(north, face_value_ref(a, v, shift_y, "upwind"))
    zero, dz = np.zeros_like(a), np.array([10.0, 25.0, 60.0], dtype).reshape(-1, 1, 1)
    got = metrics.transport(zero, (east.copy(), north.copy()), (u, v), ((m.ly_east,), (m.lx_north,)), 600.0, m.area)
    div = face_divergence(u * east * m.ly_east, v * north * m.lx_north)
    assert same_bits(got, zero - 600.0 * div / m.area)
    got = metrics.transport(zero, (east.copy(), north.copy()), (u, v), ((m.ly_east, dz), (m.lx_north, dz)),
                            600.0, m.area, (~m.mask_u, ~m.mask_v))
    div = face_divergence(np.where(m.mask_u, u * east, 0.0) * m.ly_east * dz,
                          np.where(m.mask_v, v * north, 0.0) * m.lx_north * dz)
    assert same_bits(got, zero - 600.0 * div / m.area)


@pytest.mark.parametrize("dtype", DTYPES)
def test_rotation_on_2d_and_3d_inputs(grid, dtype):
    m = CGridMetrics.build(grid).astype(dtype)
    rotation = CoriolisRotation(m)
    for shape in (m.shape, (5,) + m.shape):
        u, v = _fields(shape, dtype, 1), _fields(shape, dtype, 2)
        got, ref = rotation(u, v, 900.0), rotation_ref(m, u, v, 900.0)
        assert all(same_bits(a, b) for a, b in zip(got, ref))
        assert has_negative_zero(ref[0]) and has_negative_zero(ref[1])
        out = (np.empty_like(u), np.empty_like(v))
        assert all(a is b for a, b in zip(rotation(u, v, 900.0, out=out), out))
        assert all(same_bits(a, b) for a, b in zip(out, ref))


@pytest.mark.parametrize("dtype", DTYPES)
def test_operators_on_a_masked_box(grid, dtype):
    m = CGridMetrics.build(grid).astype(dtype)
    for shape in (m.shape, (3,) + m.shape):
        phi = _fields(shape, dtype, 3)
        assert same_bits(grad_x(m, phi), grad_x_ref(m, phi))
        assert same_bits(grad_y(m, phi), grad_y_ref(m, phi))
    fu, fv = _fields(m.shape, dtype, 4), _fields(m.shape, dtype, 5)
    kept = fu.copy(), fv.copy()
    assert same_bits(divergence_c(m, fu, fv), divergence_c_ref(m, fu, fv))
    assert same_bits(fu, kept[0]) and same_bits(fv, kept[1])   # the inputs are read only


@pytest.mark.parametrize("dtype", DTYPES)
def test_barotropic_substep_and_norm(grid, dtype):
    m = CGridMetrics.build(grid).astype(dtype)
    solver = BarotropicSolver(m, grid.depth.astype(dtype))
    state = BarotropicState(*(_fields(m.shape, dtype, k, 0.2) for k in (6, 7, 8)))
    wind = solver.wind_acceleration(_fields(m.shape, dtype, 9, 0.1), _fields(m.shape, dtype, 10, 0.1))
    dt = solver.max_stable_dt()
    assert has_negative_zero(state.u[m.mask_u]) and has_negative_zero(state.v[m.mask_v])
    for _ in range(3):
        new = solver.step(state, dt, wind=wind)
        ref, norm = barotropic_ref(solver, state, dt, wind)
        assert all(same_bits(a, b) for a, b in zip((new.eta, new.u, new.v), ref))
        assert solver.norm(new) == norm and norm > 0
        state = new


@pytest.mark.parametrize("dtype", DTYPES)
def test_baroclinic_step(grid, dtype):
    m = CGridMetrics.build(grid).astype(dtype)
    mask3d, dz = grid.levels_mask(), np.diff(grid.z_interfaces).astype(dtype)
    solver = BaroclinicSolver(m, mask3d, dz)
    rng = np.random.default_rng(11)
    t = np.where(mask3d, 4.0 + 14.0 * rng.random(mask3d.shape), 0.0).astype(dtype)
    s = np.where(mask3d, 34.0 + 2.0 * rng.random(mask3d.shape), 0.0).astype(dtype)
    u, v = _fields(mask3d.shape, dtype, 12, 0.1), _fields(mask3d.shape, dtype, 13, 0.1)
    taux, tauy = _fields(m.shape, dtype, 14, 0.1), _fields(m.shape, dtype, 15, 0.1)
    got = solver.step(u, v, t, s, 1800.0, taux, tauy)
    ref = baroclinic_ref(solver, u, v, t, s, 1800.0, taux, tauy)
    assert all(same_bits(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("scheme", ["upwind", "muscl"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_tracer_step(grid, dtype, scheme):
    m = CGridMetrics.build(grid).astype(dtype)
    mask3d, dz = grid.levels_mask(), np.diff(grid.z_interfaces).astype(dtype)
    solver = TracerSolver(m, mask3d, dz, advection_scheme=scheme)
    rng = np.random.default_rng(16)
    t = np.where(mask3d, 4.0 + 14.0 * rng.random(mask3d.shape), -0.0).astype(dtype)
    s = np.where(mask3d, 34.0 + 2.0 * rng.random(mask3d.shape), 0.0).astype(dtype)
    u, v = _fields(mask3d.shape, dtype, 17, 0.2), _fields(mask3d.shape, dtype, 18, 0.2)
    heat, fresh = _fields(m.shape, dtype, 19, 80.0), _fields(m.shape, dtype, 20, 1e-5)
    # Zero on every other cell: there the result is the increment alone, all of its bits exposed.
    checker = (np.indices(mask3d.shape).sum(axis=0) % 2).astype(dtype)
    for c in (t, s, t * checker):
        assert same_bits(solver.advect(c, u, v, 1800.0, scheme), advect_ref(solver, c, u, v, 1800.0, scheme))
        assert same_bits(solver.diffuse_horizontal(c, 1800.0), diffuse_ref(solver, c, 1800.0))
    got = solver.step(t, s, u, v, 1800.0, heat, fresh)
    ref = tracer_step_ref(solver, t, s, u, v, 1800.0, heat, fresh)
    assert all(same_bits(a, b) for a, b in zip(got, ref))
    assert has_negative_zero(ref[0])


def test_model_step_with_the_freezing_clamp():
    model = LicomModel(LicomConfig(nlon=36, nlat=24, n_levels=5))
    model.init()
    shape = model.metrics.shape
    model.import_state({"taux": _fields(shape, np.float64, 25, 0.1), "tauy": _fields(shape, np.float64, 26, 0.1),
                        "heat_flux": _fields(shape, np.float64, 27, 300.0)})
    model.t[0, :, ::3] = -5.0                    # wet cells to clamp, dry ones to leave
    bt, u, v, t, s = model.bt.copy(), model.u, model.v, model.t, model.s
    wind = model.barotropic.wind_acceleration(model.taux, model.tauy)
    for _ in range(BAROTROPIC_SUBSTEPS):
        bt = BarotropicState(*barotropic_ref(model.barotropic, bt, model.dt_barotropic, wind)[0])
    u, v = baroclinic_ref(model.baroclinic, u, v, t, s, model.dt_baroclinic, model.taux, model.tauy)
    t, s = tracer_step_ref(model.tracers, t, s, u + bt.u[None], v + bt.v[None], model.dt_tracer,
                           model.heat_flux, model.fresh_flux)
    t = np.where(model.mask3d, np.maximum(t, T_FREEZE), t)
    model.step()
    assert ((t == T_FREEZE) & model.mask3d).any() and (t[~model.mask3d] == -5.0).any()
    for got, ref in zip((model.bt.eta, model.bt.u, model.bt.v, model.u, model.v, model.t, model.s),
                        (bt.eta, bt.u, bt.v, u, v, t, s)):
        assert same_bits(got, ref)


def test_sea_ice_transport(grid):
    ice = CiceModel(grid)
    ice.init()
    shape = ice.metrics.shape
    ice.u_drift, ice.v_drift = _fields(shape, np.float64, 21, 0.3), _fields(shape, np.float64, 22, 0.3)
    ice.thickness = np.abs(_fields(shape, np.float64, 23))
    ice.concentration = np.abs(_fields(shape, np.float64, 24, 0.6))
    for dt in (3600.0, 3.6e6):  # the second step overshoots: both clamps act
        ref = ice_ref(ice, dt)
        ice._dynamics(dt)
        assert same_bits(ice.thickness, ref[0]) and same_bits(ice.concentration, ref[1])
    assert ice.concentration.max() == 1.0 and (ice.thickness[ice.grid.mask] == 0.0).any()


def test_mixed_dtypes_raise_rather_than_round_differently(grid):
    m = CGridMetrics.build(grid).astype(np.float32)
    mask3d, dz = grid.levels_mask(), np.diff(grid.z_interfaces).astype(np.float32)
    f32, f64 = np.zeros(mask3d.shape, np.float32), np.zeros(mask3d.shape)
    with pytest.raises(TypeError, match="one dtype"):
        TracerSolver(m, mask3d, dz).step(f32, f32, f64, f32, 600.0)
    with pytest.raises(TypeError, match="one dtype"):
        BaroclinicSolver(m, mask3d, dz).step(f32, f64, f32, f32, 600.0)
    solver = BarotropicSolver(m, grid.depth.astype(np.float32))
    with pytest.raises(TypeError, match="one dtype"):
        solver.step(BarotropicState(f32[0], f64[0], f32[0]), 60.0)
    with pytest.raises(TypeError, match="one dtype"):
        solver.step(BarotropicState(f32[0], f32[0], f32[0]), 60.0, wind=(f64[0], None))
    with pytest.raises(TypeError, match="one dtype"):
        CoriolisRotation(m)(f32, f64, 60.0)
    with pytest.raises(TypeError, match="one dtype"):
        grad_x(m, f64)
    with pytest.raises(TypeError, match="one dtype"):
        divergence_c(m, f32[0], f64[0])
