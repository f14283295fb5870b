"""Distributed execution of the barotropic solver over the simulated MPI
runtime — the end-to-end validation of the whole parallel stack.

Each rank owns a :class:`~repro.parallel.decomp.Block2D` of the tripolar
grid plus a 3-deep halo; every step exchanges (eta, u, v) halos through
:class:`~repro.parallel.halo.StructuredHalo` and then runs the *same*
serial :class:`~repro.ocn.barotropic.BarotropicSolver` arithmetic on the
padded window, keeping only the interior.  Because every stencil reads at
most 3 points away and the halos carry exact copies of the neighbor state,
the distributed run is **bit-for-bit identical** to the serial run — the
paper's §5.1 validation standard, tested in
``tests/test_ocn_parallel_run.py``.

The per-substep stabilization norm is computed with a fixed-order
allreduce; it is a diagnostic only, so it does not perturb the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..grids.tripolar import TripolarGrid
from ..obs import NULL_OBS
from ..parallel.comm import SimComm, SimWorld
from ..parallel.decomp import Block2D, factor_2d
from ..parallel.halo import StructuredHalo
from .barotropic import BarotropicSolver, BarotropicState
from .metrics import CGridMetrics

__all__ = ["distributed_barotropic_run", "local_window"]

PAD = 3  # halo depth: enough for the two-stage forward-backward stencils


def _padded(arr: np.ndarray, block: Block2D, fill) -> np.ndarray:
    """Global (nlat, nlon) ``arr`` on a rank's padded window: columns wrap
    periodically, rows beyond the south edge / the seam are set to ``fill``."""
    nlat, nlon = arr.shape
    rows = np.arange(block.y_range[0] - PAD, block.y_range[1] + PAD)
    cols = np.arange(block.x_range[0] - PAD, block.x_range[1] + PAD) % nlon
    out = arr[np.ix_(np.clip(rows, 0, nlat - 1), cols)].copy()
    out[(rows < 0) | (rows >= nlat), :] = fill
    return out


def local_window(
    grid: TripolarGrid,
    metrics: CGridMetrics,
    block: Block2D,
) -> Tuple[CGridMetrics, np.ndarray]:
    """Metrics and depth restricted to a rank's padded window.

    Rows beyond the global domain are fully masked, so no flux crosses them
    (matching the serial solver's closed south edge and seam; the row *at*
    the seam keeps its serial mask).
    """
    fills = dict(area=1.0, dxu=1.0, dyv=1.0, ly_east=0.0, lx_north=0.0,
                 mask_c=False, mask_u=False, mask_v=False, f_c=0.0)
    masked = CGridMetrics(**{name: _padded(getattr(metrics, name), block, fill) for name, fill in fills.items()})
    return masked, _padded(grid.depth, block, 0.0)


def distributed_barotropic_run(
    grid: TripolarGrid,
    n_steps: int,
    n_ranks: int,
    dt: Optional[float] = None,
    taux: Optional[np.ndarray] = None,
    initial_eta: Optional[np.ndarray] = None,
    obs=NULL_OBS,
) -> Tuple[BarotropicState, List[float]]:
    """Run ``n_steps`` of the barotropic solver on ``n_ranks`` simulated
    MPI ranks; returns the gathered global state and the per-step norms.

    Requires ``grid.nlon`` divisible by the process-grid x extent (the
    same constraint the tripolar fold exchange carries).  A live ``obs``
    handle is forked per rank: each rank records halo/solve spans and
    counters, and the world's traffic ledger lands in the parent metrics.
    """
    metrics = CGridMetrics.build(grid)
    serial_solver = BarotropicSolver(metrics, grid.depth)
    if dt is None:
        dt = serial_solver.max_stable_dt()
    px, py = factor_2d(n_ranks, aspect=grid.nlon / grid.nlat)
    if grid.nlon % px:
        raise ValueError(
            f"nlon={grid.nlon} must divide evenly over px={px} ranks in x"
        )

    eta0 = initial_eta if initial_eta is not None else np.zeros(metrics.shape)

    def program(comm: SimComm):
        robs = obs.fork(comm.rank) if obs.enabled else obs
        block = Block2D(grid.nlat, grid.nlon, py, px, comm.rank)
        local_metrics, local_depth = local_window(grid, metrics, block)
        solver = BarotropicSolver(local_metrics, local_depth)
        halo = StructuredHalo(block, width=PAD, tripolar_fold=False)

        state = BarotropicState.zeros(local_depth.shape)
        state.eta = _padded(eta0, block, 0.0)
        taux_pad = _padded(taux, block, 0.0) if taux is not None else None
        norms: List[float] = []
        interior = (slice(PAD, -PAD), slice(PAD, -PAD))

        for istep in range(n_steps):
            with robs.span("ocn.parallel_step", step=istep):
                # Refresh halos from the owning ranks.
                with robs.span("ocn.halo_exchange"):
                    for field in (state.eta, state.u, state.v):
                        halo.exchange(comm, field)
                robs.counter("ocn.halo_exchanges").inc(3)
                with robs.span("ocn.solve"):
                    new_state, _ = solver.step(state, dt, taux=taux_pad)
                    # Keep only the interior (halo rings are stencil-contaminated).
                    state.eta[interior] = new_state.eta[interior]
                    state.u[interior] = new_state.u[interior]
                    state.v[interior] = new_state.v[interior]

                # Global stabilization norm: fixed-order reduction over ranks,
                # same normalization as the serial solver (total area; eta is
                # zero on land anyway).
                m = local_metrics
                local_sum = float(np.sum(m.area[interior] * state.eta[interior] ** 2))
                local_area = float(np.sum(m.area[interior]))
                total = comm.allreduce(np.array([local_sum, local_area]), op="sum")
                norms.append(float(np.sqrt(total[0] / max(total[1], 1e-300))))

        return (
            block.y_range,
            block.x_range,
            state.eta[interior].copy(),
            state.u[interior].copy(),
            state.v[interior].copy(),
            norms,
        )

    world = SimWorld(n_ranks, timeout=60.0)
    results = world.run(program)
    if obs.enabled:
        obs.metrics.record_traffic(world.ledger, prefix="ocn.comm")

    gathered = BarotropicState.zeros(metrics.shape)
    norms = results[0][5]
    for (yr, xr, eta, u, v, _n) in results:
        ys = slice(yr[0], yr[1])
        xs = slice(xr[0], xr[1])
        gathered.eta[ys, xs] = eta
        gathered.u[ys, xs] = u
        gathered.v[ys, xs] = v
    return gathered, norms
