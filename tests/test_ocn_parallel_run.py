"""The end-to-end parallel validation: the distributed barotropic solver
(blocks + halo exchange over simulated MPI) must be bit-for-bit identical
to the serial solver — the paper's §5.1 coupled-model validation standard
applied to our parallel stack."""

import numpy as np
import pytest

from repro.grids import TripolarGrid
from repro.ocn import BarotropicSolver, BarotropicState, CGridMetrics
from repro.ocn.parallel_run import distributed_barotropic_run, local_window
from repro.parallel import Block2D


@pytest.fixture(scope="module")
def small_grid():
    return TripolarGrid.build(64, 48, n_levels=8)


@pytest.fixture(scope="module")
def serial_setup(small_grid):
    metrics = CGridMetrics.build(small_grid)
    solver = BarotropicSolver(metrics, small_grid.depth)
    rng = np.random.default_rng(0)
    eta0 = np.where(metrics.mask_c, 0.1 * rng.standard_normal(metrics.shape), 0.0)
    taux = np.where(metrics.mask_u, 0.05, 0.0)
    return metrics, solver, eta0, taux


def _serial_run(solver, eta0, taux, n_steps, dt):
    state = BarotropicState(eta0.copy(), np.zeros_like(eta0), np.zeros_like(eta0))
    wind = solver.wind_acceleration(taux, None)
    for _ in range(n_steps):
        state = solver.step(state, dt, wind=wind)
    return state, solver.norm(state)


@pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
def test_distributed_bitwise_identical(small_grid, serial_setup, n_ranks):
    metrics, solver, eta0, taux = serial_setup
    dt = solver.max_stable_dt()
    n_steps = 12
    serial, _ = _serial_run(solver, eta0, taux, n_steps, dt)
    dist, _ = distributed_barotropic_run(
        small_grid, n_steps, n_ranks, dt=dt, taux=taux, initial_eta=eta0
    )
    assert np.array_equal(dist.eta, serial.eta)
    assert np.array_equal(dist.u, serial.u)
    assert np.array_equal(dist.v, serial.v)


def test_distributed_norm_matches_serial(small_grid, serial_setup):
    metrics, solver, eta0, taux = serial_setup
    dt = solver.max_stable_dt()
    serial, serial_norm = _serial_run(solver, eta0, taux, 8, dt)
    _, norms = distributed_barotropic_run(
        small_grid, 8, 4, dt=dt, taux=taux, initial_eta=eta0
    )
    # Different summation order: equal to near round-off, not bitwise.
    assert norms[-1] == pytest.approx(serial_norm, rel=1e-12)


def test_rank_count_independence(small_grid, serial_setup):
    """2 ranks and 8 ranks must agree bitwise with each other too."""
    metrics, solver, eta0, taux = serial_setup
    dt = solver.max_stable_dt()
    a, _ = distributed_barotropic_run(small_grid, 6, 2, dt=dt, taux=taux, initial_eta=eta0)
    b, _ = distributed_barotropic_run(small_grid, 6, 8, dt=dt, taux=taux, initial_eta=eta0)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.u, b.u)


def test_local_window_masks_out_of_domain(small_grid):
    metrics = CGridMetrics.build(small_grid)
    block = Block2D(small_grid.nlat, small_grid.nlon, 2, 2, rank=0)  # south-west
    local_m, local_depth = local_window(small_grid, metrics, block)
    # Padded rows below the global south edge must be fully closed.
    assert not local_m.mask_c[:3].any()
    assert not local_m.mask_v[:3].any()
    assert np.all(local_depth[:3] == 0.0)


def test_indivisible_x_rejected(small_grid):
    # 6 ranks factor to px=3 on this aspect ratio; 64 % 3 != 0.
    with pytest.raises(ValueError, match="divide"):
        distributed_barotropic_run(small_grid, 1, 6)
