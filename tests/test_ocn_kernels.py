"""Tests for the LICOMK++-style portable ocean kernels: bit-identical to
the plain-numpy solvers however the launch is cut, with and without
non-ocean-point compression (the §5.3 x §5.2.2 composition)."""

import numpy as np
import pytest

from repro.ocn import BaroclinicSolver, CGridMetrics, Compressor, MixingParams, canuto_kappa, linear_eos
from repro.component import ComponentContext
from repro.ocn.kernels import (
    baroclinic_pressure_kernel, canuto_kernel, eos_kernel, run_canuto, run_eos, run_pressure,
)
from repro.pp import KERNELS, ExecutionSpace, Serial, make_backend

# A device is a lane count: the ids name the hardware each cut stands for
# (and keep the test ids these cases had when each had its own constructor).
SPACES = [Serial()] + [ExecutionSpace("cut", lanes=k) for k in (4, 64, 512)]
IDS = ["Serial", "HostThreads", "CPECluster", "GPUDevice"]


@pytest.fixture(scope="module")
def fields(tripolar_small):
    mask3d = tripolar_small.levels_mask()
    rng = np.random.default_rng(0)
    t = np.where(mask3d, 5.0 + 20.0 * rng.random(mask3d.shape), 0.0)
    s = np.where(mask3d, 34.0 + 2.0 * rng.random(mask3d.shape), 0.0)
    return tripolar_small, mask3d, t, s


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_eos_matches_reference(fields, space):
    _, _, t, s = fields
    assert np.array_equal(run_eos(ComponentContext(space), t, s), linear_eos(t, s))


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_eos_compressed_matches_on_wet_points(fields, space):
    _, mask3d, t, s = fields
    comp = Compressor(mask3d)
    packed = run_eos(ComponentContext(space), t, s, compressor=comp)
    ref = linear_eos(t, s)
    assert np.array_equal(packed[mask3d], ref[mask3d])


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_canuto_matches_reference(fields, space):
    rng = np.random.default_rng(1)
    ri = rng.standard_normal((10, 40, 60)) * 2.0
    prm = MixingParams()
    assert np.array_equal(run_canuto(ComponentContext(space), ri, prm), canuto_kappa(ri, prm))


def test_canuto_compressed(fields):
    _, mask3d, _, _ = fields
    rng = np.random.default_rng(2)
    ri = rng.standard_normal(mask3d.shape)
    comp = Compressor(mask3d)
    packed = run_canuto(ComponentContext(Serial()), ri, compressor=comp)
    ref = canuto_kappa(ri)
    assert np.array_equal(packed[mask3d], ref[mask3d])


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_pressure_matches_baroclinic_solver(fields, space):
    grid, mask3d, t, s = fields
    metrics = CGridMetrics.build(grid)
    dz = np.diff(grid.z_interfaces)
    solver = BaroclinicSolver(metrics, mask3d, dz)
    ref = solver.pressure(t, s)
    got = run_pressure(ComponentContext(space), t, s, dz)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-6)


def test_all_spaces_agree_bitwise(fields):
    _, _, t, s = fields
    results = [run_eos(ComponentContext(space), t, s) for space in SPACES]
    for r in results[1:]:
        assert np.array_equal(r, results[0])


def test_kernels_are_registered():
    """The process-wide hash table holds every ocean kernel (the §5.3
    mechanism): each joined at import and is resolved by its handle."""
    for fn in (eos_kernel, canuto_kernel, baroclinic_pressure_kernel):
        assert KERNELS.lookup(fn.handle) is fn


class TestBackendSelection:
    """The executors a run can select: both give the reference answer."""

    def test_selected_backend_runs_the_kernels(self, fields):
        _, _, t, s = fields
        ref = linear_eos(t, s)
        for name in ("serial", "procs"):
            space = make_backend(name, 2)
            try:
                assert np.array_equal(run_eos(ComponentContext(space), t, s), ref)
            finally:
                if name == "procs":
                    space.runtime.shutdown()


def test_ocn_backends_shim_removed():
    """The old ``repro.ocn.backends`` module is gone; backend selection
    lives in ``repro.pp``."""
    with pytest.raises(ImportError):
        import repro.ocn.backends  # noqa: F401

