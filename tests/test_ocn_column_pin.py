"""The in-place column solver is pinned bit for bit to the per-level one.

The oracle below is the solver as it stood before the column phases ran as
whole-stack, in-place ops: ``column_kappa`` one interface at a time,
``factor`` and ``solve`` one level at a time, each step a fresh temporary.
Every case compares raw bytes, so a ``-0.0`` that turns into ``+0.0`` fails.
"""

import numpy as np
import pytest

from repro.ocn.mixing import (
    ColumnDiffusion,
    MixingParams,
    canuto_kappa,
    column_kappa,
    implicit_vertical_diffusion,
    richardson_number,
)
from repro.utils.units import GRAVITY, RHO_OCEAN

# -- the per-level oracle ------------------------------------------------------------


def _ri_ref(rho, u, v, dz):
    dzi = 0.5 * (dz[:-1] + dz[1:])
    dzi = dzi.reshape((-1,) + (1,) * (rho.ndim - 1))
    n2 = -(GRAVITY / RHO_OCEAN) * (rho[:-1] - rho[1:]) / dzi
    du = (u[:-1] - u[1:]) / dzi
    dv = (v[:-1] - v[1:]) / dzi
    s2 = du**2 + dv**2 + 1.0e-12
    return n2 / s2


def _canuto_ref(ri, p):
    stable = p.kappa_background + p.kappa_0 / (1.0 + np.maximum(ri, 0.0) / p.ri_critical) ** p.power
    return np.where(ri < 0.0, p.kappa_max, stable)


def column_kappa_ref(rho, u, v, dz, params):
    kappa = np.empty((rho.shape[0] - 1,) + rho.shape[1:], rho.dtype)
    for k in range(kappa.shape[0]):
        w = slice(k, k + 2)
        kappa[k] = _canuto_ref(_ri_ref(rho[w], u[w], v[w], dz[w]), params)[0]
    return kappa


def factor_ref(dz, mask3d, kappa, dt):
    nlev = dz.shape[0]
    dzi = 0.5 * (dz[:-1] + dz[1:])
    above, below = dz[:-1] * dzi, dz[1:] * dzi
    wet = None if mask3d is None else mask3d[:-1] & mask3d[1:]
    lower, denom, cp = (np.zeros((nlev,) + kappa.shape[1:], kappa.dtype) for _ in range(3))
    for k in range(nlev):
        upper = 0.0
        if k < nlev - 1:
            dtk = dt * (kappa[k] if wet is None else np.where(wet[k], kappa[k], 0.0))
            upper, lower[k + 1] = dtk / above[k], dtk / below[k]
        denom[k] = 1.0 + lower[k] + upper - lower[k] * cp[k - 1]
        cp[k] = upper / denom[k]
    return lower, denom, cp


def solve_ref(mask3d, factors, field):
    lower, denom, cp = factors
    out = np.empty_like(field)
    out[0] = field[0] / denom[0]
    for k in range(1, len(out)):
        out[k] = (field[k] + lower[k] * out[k - 1]) / denom[k]
    for k in range(len(out) - 2, -1, -1):
        out[k] = out[k] + cp[k] * out[k + 1]
    if mask3d is not None:
        for k in range(len(out)):
            out[k] = np.where(mask3d[k], out[k], field[k])
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- cases ----------------------------------------------------------------------------


def _ocean_stack(dtype):
    """A (6, 5, 7) masked box: full, partly dry and fully dry columns, a
    uniform-density column (Ri = -0.0), unstable and sheared interfaces,
    and signed zeros on dry cells and in a still, uniform column."""
    rng = np.random.default_rng(11)
    nlev, ny, nx = 6, 5, 7
    dz = np.array([10.0, 15.0, 25.0, 40.0, 60.0, 100.0])
    bottom = rng.integers(0, nlev + 1, (ny, nx))           # wet levels per column
    bottom[0, 0], bottom[0, 1], bottom[1, 0] = 0, nlev, 1  # dry, full, one level
    mask3d = np.arange(nlev)[:, None, None] < bottom[None]
    t = 4.0 + 14.0 * rng.random((nlev, ny, nx))            # unstable pairs included
    s = 35.0 + rng.standard_normal((nlev, ny, nx))
    rho = RHO_OCEAN * (1.0 - 2e-4 * (t - 10.0) + 7.6e-4 * (s - 35.0))
    rho[:, 2, 3] = RHO_OCEAN                               # no stratification
    u = 0.1 * rng.standard_normal((nlev, ny, nx))
    v = 0.1 * rng.standard_normal((nlev, ny, nx))
    u[:, 2, 3], v[:, 2, 3] = 0.0, -0.0
    for f in (t, s, u, v):
        f[~mask3d] = -0.0
    t[:, 2, 3] = -0.0
    cast = lambda a: a.astype(dtype)  # noqa: E731
    return cast(dz), mask3d, cast(rho), cast(u), cast(v), cast(t), cast(s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_ocean_stack_is_bitwise_the_per_level_solver(dtype):
    dz, mask3d, rho, u, v, t, s = _ocean_stack(dtype)
    params = MixingParams()
    kappa = column_kappa(rho, u, v, dz, params)
    assert same_bits(kappa, column_kappa_ref(rho, u, v, dz, params))
    assert np.signbit(richardson_number(rho, u, v, dz)[:, 2, 3]).all()  # the -0.0 path ran
    assert (kappa == params.kappa_max).any() and (kappa < params.kappa_max).any()

    column = ColumnDiffusion(dz, mask3d)
    dt = 7200.0
    factors = column.factor(kappa, dt)
    ref = factor_ref(dz, mask3d, kappa, dt)
    assert all(same_bits(a, b) for a, b in zip(factors, ref))
    for field in (t, s, u):
        out = column.solve(factors, field)
        assert same_bits(out, solve_ref(mask3d, ref, field))
        assert same_bits(implicit_vertical_diffusion(field, kappa, dz, dt, mask3d), out)
        assert not same_bits(out, field)
    assert np.signbit(column.solve(factors, t)[:, 2, 3]).all()


def test_atmosphere_broadcast_kappa_is_bitwise_the_per_level_solver():
    rng = np.random.default_rng(12)
    nlev, ncol = 20, 9
    dz = np.maximum(1000.0 * rng.random(nlev), 10.0)
    kappa = np.linspace(1.0, 150.0, nlev - 1)[:, None]     # one profile, every column
    column = ColumnDiffusion(dz)
    factors = column.factor(kappa, 1800.0)
    ref = factor_ref(dz, None, kappa, 1800.0)
    assert factors[0].shape == (nlev, 1)
    assert all(same_bits(a, b) for a, b in zip(factors, ref))
    q = 1e-3 * rng.random((nlev, ncol))
    q[:, 4] = -0.0
    for field in (280.0 + 4.0 * rng.standard_normal((nlev, ncol)), q):
        assert same_bits(column.solve(factors, field), solve_ref(None, ref, field))


def test_single_column_is_bitwise_the_per_level_solver():
    dz, mask3d, rho, u, v, t, _ = _ocean_stack(np.float64)
    j, i = np.argwhere(mask3d[2] & ~mask3d[-1])[0]     # a partly dry column
    col = (slice(None), j, i)
    kappa = column_kappa(rho[col], u[col], v[col], dz, MixingParams())
    assert same_bits(kappa, column_kappa_ref(rho[col], u[col], v[col], dz, MixingParams()))
    for mask in (None, mask3d[col]):
        factors = ColumnDiffusion(dz, mask).factor(kappa, 3600.0)
        ref = factor_ref(dz, mask, kappa, 3600.0)
        assert all(same_bits(a, b) for a, b in zip(factors, ref))
        assert same_bits(ColumnDiffusion(dz, mask).solve(factors, t[col]), solve_ref(mask, ref, t[col]))


@pytest.mark.parametrize("dt", [np.float64(7200.1), np.array(7200.1), np.float32(7200.1)])
def test_numpy_dt_factors_as_the_python_float(dt):
    # 7200.1 is not an fp32 value, so an fp64 dt kappa rounded once into the
    # fp32 buffer would differ from fp32(dt) kappa
    dz, mask3d, rho, u, v, _, _ = _ocean_stack(np.float32)
    kappa = column_kappa(rho, u, v, dz, MixingParams())
    factors = ColumnDiffusion(dz, mask3d).factor(kappa, dt)
    ref = factor_ref(dz, mask3d, kappa, float(dt))
    assert all(same_bits(a, b) for a, b in zip(factors, ref))


def test_canuto_kappa_in_place_equals_fresh():
    ri = np.array([-1.0, -0.0, 0.0, 0.1, 3.0, 1e9], np.float32)
    fresh = canuto_kappa(ri, MixingParams())
    assert same_bits(fresh, _canuto_ref(ri, MixingParams()))
    assert canuto_kappa(ri, MixingParams(), out=ri) is ri
    assert same_bits(ri, fresh)


def test_mixed_dtypes_raise_rather_than_round_differently():
    dz, mask3d, rho, u, v, t, _ = _ocean_stack(np.float32)
    column = ColumnDiffusion(dz, mask3d)
    factors = column.factor(column_kappa(rho, u, v, dz, MixingParams()), 600.0)
    with pytest.raises(TypeError, match="one dtype"):
        column.solve(factors, t.astype(np.float64))
    with pytest.raises(TypeError, match="one dtype"):
        column.factor(np.ones((5,) + t.shape[1:]), 600.0)
    with pytest.raises(TypeError, match="one dtype"):
        column_kappa(rho, u.astype(np.float64), v, dz, MixingParams())
