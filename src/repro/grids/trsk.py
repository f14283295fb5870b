"""TRSK finite-volume operators on the icosahedral Voronoi C-grid.

These are the Thuburn-Ringler-Skamarock-Klemp (2009/2010) mimetic
operators GRIST-class dycores are built from:

* ``divergence`` (edges -> cells) and ``gradient`` (cells -> edges) are
  discrete adjoints under the (area, le*de) inner products, so the
  pressure-gradient / continuity pair conserves energy;
* ``curl`` (edges -> dual vertices) gives relative vorticity by circulation
  around cell-center triangles;
* ``tangential`` reconstructs tangential velocities/fluxes from normal
  components via the grid's antisymmetrized TRSK weight table, making the
  nonlinear Coriolis term exactly energy-neutral;
* ``kinetic_energy_cell``, ``cell_to_edge``, ``cell_to_dual`` are the
  standard averaging maps.

All operators are vectorized gather/scatter over the mesh arrays (numpy
``add.at`` scatters), per the HPC-python guidance: no python-level loops in
the time-stepping path.  The static index columns, masks and geometric
weights they gather through are not rebuilt per call: they live in the
grid's own :class:`~repro.grids.icos.TRSKTables`
(``grid.trsk_tables``, built once per grid object), and each operator does
exactly the float operations, in the same order, that the mesh arrays
themselves would give.
"""

from __future__ import annotations

import numpy as np

from .icos import IcosahedralGrid

__all__ = [
    "divergence",
    "gradient",
    "curl",
    "tangential",
    "cell_to_edge",
    "dual_to_edge",
    "cell_to_dual",
    "kinetic_energy_cell",
    "laplacian_edge",
]


def divergence(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Divergence at cells of a normal-component edge field (1/s if u is
    velocity; flux divergence if u is already a flux)."""
    tb = grid.trsk_tables
    flux = grid.le * u
    div = np.zeros(grid.n_cells, dtype=np.float64)
    np.add.at(div, tb.c1, flux)
    np.add.at(div, tb.c2, -flux)
    return div / grid.area_cell


def gradient(grid: IcosahedralGrid, phi: np.ndarray) -> np.ndarray:
    """Normal gradient at edges of a cell field (c1 -> c2 direction)."""
    tb = grid.trsk_tables
    return (phi[tb.c2] - phi[tb.c1]) / grid.de


def curl(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Relative vorticity at dual vertices (circulation / dual area).

    The circulation path around a dual vertex runs along the dual edges
    (cell-center connections); ``u`` is the velocity component along those
    (the primal-edge normal), and orientation gives +1 for the vertex on
    the +tangent side.
    """
    tb = grid.trsk_tables
    circ = grid.de * u
    zeta = np.zeros(grid.n_dual, dtype=np.float64)
    np.add.at(zeta, tb.t2, circ)
    np.add.at(zeta, tb.t1, -circ)
    return zeta / grid.area_dual


def tangential(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Tangential component at edges reconstructed from normal components."""
    tb = grid.trsk_tables
    vals = u[tb.ee_index]
    return np.sum(grid.edge_weights * np.where(tb.ee_mask, vals, 0.0), axis=1)


def cell_to_edge(grid: IcosahedralGrid, phi: np.ndarray) -> np.ndarray:
    """Two-point average of a cell field onto edges."""
    tb = grid.trsk_tables
    return 0.5 * (phi[tb.c1] + phi[tb.c2])


def dual_to_edge(grid: IcosahedralGrid, psi: np.ndarray) -> np.ndarray:
    """Two-point average of a dual-vertex field onto edges."""
    tb = grid.trsk_tables
    return 0.5 * (psi[tb.t1] + psi[tb.t2])


def cell_to_dual(grid: IcosahedralGrid, phi: np.ndarray) -> np.ndarray:
    """Kite-area-weighted average of a cell field onto dual vertices (the
    thickness average used in the PV definition)."""
    weighted = np.sum(grid.dual_kite * phi[grid.tri], axis=1)
    return weighted / grid.trsk_tables.kite_sum


def kinetic_energy_cell(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Kinetic energy per unit mass at cells: K_c = sum_e (le de / 4) u^2 / A_c."""
    tb = grid.trsk_tables
    contrib = tb.ke_weight * u * u
    ke = np.zeros(grid.n_cells, dtype=np.float64)
    np.add.at(ke, tb.c1, contrib)
    np.add.at(ke, tb.c2, contrib)
    return ke / grid.area_cell


def laplacian_edge(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Vector Laplacian of an edge velocity field:
    ``lap(u) = grad(div u) - curl_perp(curl u)`` (the del^2 used for
    horizontal hyper-/diffusion in dycores)."""
    tb = grid.trsk_tables
    div = divergence(grid, u)
    zeta = curl(grid, u)
    grad_div = gradient(grid, div)
    # curl-perp at edge: tangential derivative of zeta along the edge,
    # i.e. (zeta_t2 - zeta_t1)/le.
    dzeta = (zeta[tb.t2] - zeta[tb.t1]) / grid.le
    return grad_div - dzeta
