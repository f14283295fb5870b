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
  standard averaging maps, ``cell_vector`` the Perot reconstruction of a
  cell-centre vector from edge normals.

Nothing here loops per index or per row.  Every scatter (edges -> cells or
dual vertices) is one sparse mat-vec over a frozen map of the grid's own
:class:`~repro.grids.icos.TRSKTables` (``grid.trsk_tables``, built once per
grid object), whose rows keep their entries in ``np.add.at``'s
accumulation order.  Every fixed-width row sum keeps numpy's own pairwise
order as whole-column adds: :func:`term_sum` for short rows and, for
``tangential``, map rows that hold numpy's accumulator pairs, finished by
:func:`pairwise_finish`.  So each operator does exactly the float
operations, in the same order, that the ``np.add.at`` / row-``np.sum``
forms over the raw mesh arrays do.
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
    "cell_vector",
    "term_sum",
    "pairwise_sum",
    "pairwise_finish",
]


def term_sum(p: np.ndarray) -> np.ndarray:
    """``out[i] = np.sum(p[:, i])`` for 1..7 terms: :func:`pairwise_sum`
    held to the short rows the dycore sums."""
    if not 0 < len(p) < 8:
        raise ValueError(f"term_sum takes 1..7 terms, got {len(p)}")
    return pairwise_sum(p)


def pairwise_sum(p: np.ndarray) -> np.ndarray:
    """``out[i] = np.add.reduce(p[:, i])`` for ``n >= 1`` terms, bitwise, as
    whole-row adds.  numpy sums a contiguous row of ``n < 8`` left to right,
    of ``n <= 128`` in eight strided accumulators combined pairwise then the
    tail, above that as two halves cut at a multiple of 8 — onto a ``+0.0``
    start (``tests/test_grids_trsk.py`` pins this against the installed
    numpy).  Here each half adds its own ``+0.0``; the sum of two halves
    that are never ``-0.0`` is never ``-0.0``, so the bits agree."""
    n = len(p)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(p[:half]) + pairwise_sum(p[half:])
    if n < 8:
        out = p[0] + 0.0
        for row in p[1:]:
            out += row
        return out
    body = n - n % 8
    acc = p[:8]
    if body > 8:
        acc = acc.copy()
        for lo in range(8, body, 8):
            acc += p[lo:lo + 8]
    pairs = acc[0::2] + acc[1::2]
    out = pairs[0::2] + pairs[1::2]
    out = out[0] + out[1]
    for row in p[body:]:
        out += row
    out += 0.0
    return out


def pairwise_finish(pairs: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """numpy's sum of a row of 8..15 terms ``p``, given its four pair sums
    ``pairs[j] = p[2j] + p[2j+1]`` and ``tail = p[8:]``:
    ``(pairs[0] + pairs[1]) + (pairs[2] + pairs[3])`` — numpy's eight
    accumulators combined pairwise — then the tail left to right, then the
    ``+0.0`` start.  Operands that differ from numpy's only in the sign of
    a zero give numpy's result: a sum that is zero either way is ``+0.0``
    after that start."""
    out = pairs[0] + pairs[1]
    out += pairs[2] + pairs[3]
    for row in tail:
        out += row
    out += 0.0
    return out


def divergence(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Divergence at cells of a normal-component edge field (1/s if u is
    velocity; flux divergence if u is already a flux)."""
    return (grid.trsk_tables.div @ u) / grid.area_cell


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
    return (grid.trsk_tables.curl @ u) / grid.area_dual


def tangential(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Tangential component at edges reconstructed from normal components."""
    terms = (grid.trsk_tables.tangential @ u).reshape(-1, grid.n_edges)
    return pairwise_finish(terms[:4], terms[4:])


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
    tb = grid.trsk_tables
    return (tb.kite @ phi) / tb.kite_sum


def kinetic_energy_cell(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Kinetic energy per unit mass at cells: K_c = sum_e (le de / 4) u^2 / A_c."""
    tb = grid.trsk_tables
    return (tb.ke @ (tb.ke_weight * u * u)) / grid.area_cell


def cell_vector(grid: IcosahedralGrid, u: np.ndarray) -> np.ndarray:
    """Perot reconstruction of the cell-centre vector from edge normals,
    ``V_c = (R / A_c) sum_e le u_e (x_e - x_c)``, as ``(3, n_cells)``
    Cartesian components."""
    vec = (grid.trsk_tables.perot @ (grid.le * u)).reshape(3, -1)
    return vec * (grid.radius / grid.area_cell)


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
