#!/usr/bin/env python
"""Distributed ocean demo: the barotropic solver block-decomposed over the
simulated MPI runtime, verified bit-for-bit against the serial solver.

This is the §5.1 validation standard ("bit-for-bit ... validation") applied
to this library's own parallel stack: the same gravity-wave adjustment
problem is solved serially and on 1/2/4/8 simulated ranks, and every
variant must agree to the last bit.

Run:  python examples/parallel_ocean.py
"""

import time

import numpy as np

from repro.grids import TripolarGrid
from repro.ocn import BarotropicSolver, BarotropicState, CGridMetrics
from repro.ocn.parallel_run import distributed_barotropic_run

N_STEPS = 50


def main() -> None:
    grid = TripolarGrid.build(64, 48, n_levels=8)
    metrics = CGridMetrics.build(grid)
    solver = BarotropicSolver(metrics, grid.depth)
    dt = solver.max_stable_dt()
    print(f"tripolar grid {grid.nlon}x{grid.nlat}, "
          f"ocean fraction {grid.ocean_fraction:.2f}, dt = {dt:.0f} s")

    rng = np.random.default_rng(0)
    eta0 = np.where(metrics.mask_c, 0.2 * rng.standard_normal(metrics.shape), 0.0)
    taux = np.where(metrics.mask_u, 0.05, 0.0)

    print(f"\nserial reference: {N_STEPS} steps...")
    state = BarotropicState(eta0.copy(), np.zeros_like(eta0), np.zeros_like(eta0))
    t0 = time.perf_counter()
    wind = solver.wind_acceleration(taux, None)
    for _ in range(N_STEPS):
        state = solver.step(state, dt, wind=wind)
    t_serial = time.perf_counter() - t0
    print(f"  {t_serial * 1e3:.0f} ms, final eta norm {solver.norm(state):.4e}")

    for n_ranks in (1, 2, 4, 8):
        t0 = time.perf_counter()
        dist, norms = distributed_barotropic_run(
            grid, N_STEPS, n_ranks, dt=dt, taux=taux, initial_eta=eta0
        )
        elapsed = time.perf_counter() - t0
        identical = (
            np.array_equal(dist.eta, state.eta)
            and np.array_equal(dist.u, state.u)
            and np.array_equal(dist.v, state.v)
        )
        print(f"  {n_ranks} ranks: {elapsed * 1e3:6.0f} ms "
              f"(threads share one core; this demonstrates correctness, "
              f"not speedup) — bit-identical to serial: {identical}")
        assert identical

    print("\nthe same halo-exchange/topology machinery feeds the machine "
          "model that prices the paper's 37-million-core runs "
          "(see examples/scaling_study.py)")


if __name__ == "__main__":
    main()
