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

:func:`barotropic_rank` is the one rank program.  Two drivers call it:
:func:`distributed_barotropic_run` (2-D blocks, one ``SimWorld.run``) and
:class:`~repro.resilience.elastic.ElasticFieldRun` (latitude slabs, one
``SimWorld.run_elastic`` per checkpoint epoch, re-cut after a rank loss).

The per-substep stabilization norm is computed with a fixed-order
allreduce; it is a diagnostic only, so it does not perturb the state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..grids.tripolar import TripolarGrid
from ..obs import NULL_OBS
from ..parallel.comm import SimComm, SimWorld
from ..parallel.decomp import Block2D, factor_2d
from ..parallel.halo import StructuredHalo
from .barotropic import BarotropicSolver, BarotropicState
from .metrics import CGridMetrics

__all__ = ["barotropic_rank", "distributed_barotropic_run", "local_window"]

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


def barotropic_rank(
    comm: SimComm,
    grid: TripolarGrid,
    metrics: CGridMetrics,
    procs: Tuple[int, int],
    shards: Sequence[np.ndarray],
    n_steps: int,
    dt: float,
    taux: Optional[np.ndarray] = None,
    obs=NULL_OBS,
) -> Tuple[np.ndarray, List[float]]:
    """The one ocean rank program: ``n_steps`` barotropic steps on this
    rank's block of the ``procs = (py, px)`` process grid.

    ``shards[comm.rank]`` is the block's interior ``(eta, u, v)`` stacked
    as a ``(3, ny, nx)`` array; the halo rings start at zero and every
    in-domain halo cell is filled by the first exchange.  Returns the
    interior after the steps (same layout) and the per-step norms.
    """
    robs = obs.fork(comm.rank) if obs.enabled else obs
    block = Block2D(grid.nlat, grid.nlon, *procs, comm.rank)
    local_metrics, local_depth = local_window(grid, metrics, block)
    solver = BarotropicSolver(local_metrics, local_depth)
    halo = StructuredHalo(block, width=PAD, tripolar_fold=False)
    interior = (slice(PAD, -PAD), slice(PAD, -PAD))

    state = BarotropicState.zeros(local_depth.shape)
    for padded, values in zip((state.eta, state.u, state.v), shards[comm.rank]):
        padded[interior] = values
    wind = solver.wind_acceleration(_padded(taux, block, 0.0) if taux is not None else None, None)
    norms: List[float] = []

    for istep in range(n_steps):
        with robs.span("ocn.parallel_step", step=istep):
            # Refresh halos from the owning ranks.
            with robs.span("ocn.halo_exchange"):
                for field in (state.eta, state.u, state.v):
                    halo.exchange(comm, field)
            robs.counter("ocn.halo_exchanges").inc(3)
            with robs.span("ocn.solve"):
                new_state = solver.step(state, dt, wind=wind)
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

    return np.stack([state.eta[interior], state.u[interior], state.v[interior]]), norms


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
    if dt is None:
        dt = BarotropicSolver(metrics, grid.depth).max_stable_dt()
    px, py = factor_2d(n_ranks, aspect=grid.nlon / grid.nlat)
    if grid.nlon % px:
        raise ValueError(
            f"nlon={grid.nlon} must divide evenly over px={px} ranks in x"
        )

    start = np.zeros((3,) + metrics.shape)
    if initial_eta is not None:
        start[0] = initial_eta
    blocks = [Block2D(grid.nlat, grid.nlon, py, px, r) for r in range(n_ranks)]
    windows = [(slice(None), slice(*b.y_range), slice(*b.x_range)) for b in blocks]
    world = SimWorld(n_ranks, timeout=60.0)
    results = world.run(
        barotropic_rank, grid, metrics, (py, px),
        [start[w] for w in windows], n_steps, dt, taux, obs,
    )
    if obs.enabled:
        obs.metrics.record_traffic(world.ledger, prefix="ocn.comm")

    for w, (interior, _) in zip(windows, results):
        start[w] = interior
    return BarotropicState(*start), results[0][1]
