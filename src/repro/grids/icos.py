"""Subdivided-icosahedron Voronoi C-grid (the GRIST/MPAS grid family).

The primal mesh is the triangulation obtained by recursively subdividing an
icosahedron; **cells** of the model grid are the Voronoi regions around the
triangulation vertices (12 pentagons, the rest hexagons), **edges** carry
normal velocities, and **dual vertices** (triangle circumcenters) carry
vorticity — the C-grid staggering of Thuburn-Ringler-Skamarock-Klemp
(TRSK), which GRIST builds on.

Counts at subdivision level ``g`` obey the Euler relations the paper's
Table 1 exhibits: ``cells = 10*4^g + 2``, ``edges = 30*4^g``, ``dual
(triangles) = 20*4^g`` — i.e. cells : edges : triangles ≈ 1 : 3 : 2, the
2 : 3 : 1 ratio of Table 1's (triangle-counted) cells : edges : vertices.

The mesh also carries everything the TRSK operators need: ordered
edge/vertex rings around every cell, kite-area weights ``R_{v,c}``
(normalized so they sum to 1 per cell), and the tangential-reconstruction
weight table with its energy-conserving antisymmetry enforced exactly.

The build is whole-mesh array code, with no per-cell or per-edge Python
loop: new vertices and edges are numbered in first-appearance order, cell
rings are padded ``(nc, 6)`` arrays, and every area comes from one batched
:func:`spherical_triangle_area` call.  Its arrays are pinned bitwise
(``tests/test_grids_icos.py::test_mesh_bytes_pinned``), since every state
digest rests on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np
from scipy.sparse import csr_matrix

from ..utils.units import EARTH_RADIUS
from .sphere import (
    arc_length,
    normalize,
    spherical_triangle_area,
    tangent_basis,
    triangle_circumcenter,
    xyz_to_lonlat,
)

__all__ = ["IcosahedralGrid", "TRSKTables", "icosahedral_counts", "scatter_map", "map_entries"]


def icosahedral_counts(level: int) -> Tuple[int, int, int]:
    """(n_cells, n_edges, n_triangles) at subdivision ``level``."""
    if level < 0:
        raise ValueError("level must be >= 0")
    f = 4**level
    return 10 * f + 2, 30 * f, 20 * f


def _base_icosahedron() -> Tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return normalize(verts), faces


def _first_appearance(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ids for the distinct ``keys``, numbered in order of first appearance
    (as a dict filled in a loop would number them): each key's id, and each
    id's first index into ``keys``."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _face_sides(faces: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every face's sides ``ab, bc, ca`` as ``(3 nf,)`` end arrays, face-major."""
    return faces.ravel(), faces[:, [1, 2, 0]].ravel()


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    nv = len(verts)
    a, b = _face_sides(faces)
    mid, first = _first_appearance(np.minimum(a, b) * nv + np.maximum(a, b))
    ab, bc, ca = (mid.reshape(-1, 3) + nv).T
    fa, fb, fc = faces.T
    new_faces = np.stack([fa, ab, ca, fb, bc, ab, fc, ca, bc, ab, bc, ca], axis=1)
    new_verts = np.concatenate([verts, normalize(verts[a[first]] + verts[b[first]])])
    return new_verts, new_faces.reshape(-1, 3)


def scatter_map(shape: Tuple[int, int], *parts) -> csr_matrix:
    """A frozen CSR scatter ``y = map @ x``.

    ``parts`` are ``(rows, cols, data)`` triples; each stands for one
    ``np.add.at(y, rows, data * x[cols])`` call, in the order given.  Row
    entries are stored in exactly that accumulation order and never
    re-sorted, and ``map @ x`` adds them one by one from ``+0.0`` — the
    same additions, in the same order, as the ``np.add.at`` calls, so the
    result is bitwise theirs.  The stored arrays are read-only.
    """
    rows, cols, data = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    m = csr_matrix((data[order], cols[order], indptr), shape=shape)
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


def map_entries(m: csr_matrix, row0: int = 0, col0: int = 0):
    """``m``'s entries as one :func:`scatter_map` part, in stored order,
    shifted to rows ``row0 + i`` and columns ``col0 + j``."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return rows + row0, m.indices + col0, m.data


@dataclass(frozen=True)
class TRSKTables:
    """Static gather/scatter maps the TRSK operators read every call: pure
    functions of one grid's mesh arrays, built once per grid object
    (:attr:`IcosahedralGrid.trsk_tables`) instead of once per operator call.

    Every scatter is a :func:`scatter_map` holding its ``np.add.at``
    accumulation order (``c1`` entries, then ``c2``; ``t2``, then ``t1``).
    """

    c1: np.ndarray         # (ne,) contiguous edge_cells[:, 0]
    c2: np.ndarray         # (ne,) contiguous edge_cells[:, 1]
    t1: np.ndarray         # (ne,) contiguous edge_dual[:, 0]
    t2: np.ndarray         # (ne,) contiguous edge_dual[:, 1]
    div: csr_matrix        # (nc, ne) +le at c1, -le at c2
    curl: csr_matrix       # (nd, ne) +de at t2, -de at t1
    ke: csr_matrix         # (nc, ne) 1 at c1, 1 at c2
    inflow: csr_matrix     # (nc, ne) -1 at c1, +1 at c2
    kite: csr_matrix       # (nd, nc) dual_kite along tri
    perot: csr_matrix      # (3 nc, ne) component k of +(x_e - x_c1) at c1, -(x_e - x_c2) at c2
    tangential: csr_matrix  # ((w - 4) ne, ne) edge_weights, w slots: 4 pair rows + w - 8 tail rows
    kite_sum: np.ndarray   # (nd,) sum_k dual_kite[:, k]
    ke_weight: np.ndarray  # (ne,) 0.25 * le * de


@dataclass
class IcosahedralGrid:
    """The fully assembled C-grid mesh; build with :meth:`build`."""

    level: int
    radius: float
    xyz_cell: np.ndarray      # (nc, 3) unit vectors: cell centers
    xyz_dual: np.ndarray      # (nd, 3) triangle circumcenters
    xyz_edge: np.ndarray      # (ne, 3) edge midpoints
    tri: np.ndarray           # (nd, 3) cell ids per triangle (CCW outside)
    edge_cells: np.ndarray    # (ne, 2) [c1, c2]; normal points c1 -> c2
    edge_dual: np.ndarray     # (ne, 2) [t1, t2]; t2 on +tangent side
    normal: np.ndarray        # (ne, 3) unit normal at edge midpoint
    tangent: np.ndarray       # (ne, 3) = up x normal
    de: np.ndarray            # (ne,) primal distance |c1 c2| (m)
    le: np.ndarray            # (ne,) dual distance |t1 t2| (m)
    area_cell: np.ndarray     # (nc,) Voronoi cell areas (m^2)
    area_dual: np.ndarray     # (nd,) cell-center-triangle areas (m^2)
    cell_nedges: np.ndarray   # (nc,) 5 or 6
    cell_edges: np.ndarray    # (nc, 6) CCW-ordered edge ids, -1 padded
    cell_edge_sign: np.ndarray  # (nc, 6) +1 if normal out of cell
    cell_vertices: np.ndarray   # (nc, 6) dual id between edge j and j+1
    kite: np.ndarray          # (nc, 6) R_{v,c}, sums to 1 per cell
    dual_kite: np.ndarray     # (nd, 3) kite areas (m^2) aligned with tri cols
    edge_edges: np.ndarray    # (ne, 10) neighbor edge ids, -1 padded
    edge_weights: np.ndarray  # (ne, 10) TRSK tangential weights
    lon_cell: np.ndarray = field(default=None)  # type: ignore[assignment]
    lat_cell: np.ndarray = field(default=None)  # type: ignore[assignment]
    lon_edge: np.ndarray = field(default=None)  # type: ignore[assignment]
    lat_edge: np.ndarray = field(default=None)  # type: ignore[assignment]
    lat_dual: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def n_cells(self) -> int:
        return self.xyz_cell.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_cells.shape[0]

    @property
    def n_dual(self) -> int:
        return self.tri.shape[0]

    @property
    def mean_cell_spacing_km(self) -> float:
        return float(np.sqrt(self.area_cell.mean()) / 1000.0)

    @cached_property
    def trsk_tables(self) -> TRSKTables:
        """This grid's :class:`TRSKTables`, built on first use and owned
        by the grid object (no table is ever shared between grids)."""
        nc, ne, nd = self.n_cells, self.n_edges, self.n_dual
        c1, c2 = (np.ascontiguousarray(self.edge_cells[:, k]) for k in (0, 1))
        t1, t2 = (np.ascontiguousarray(self.edge_dual[:, k]) for k in (0, 1))
        e = np.arange(ne)
        one = np.ones(ne)
        arm1 = self.xyz_edge - self.xyz_cell[c1]
        arm2 = self.xyz_edge - self.xyz_cell[c2]
        # numpy sums a row of 8..15 weighted terms as ((p0+p1)+(p2+p3)) +
        # ((p4+p5)+(p6+p7)), then the tail: one map row per pair, one per tail term.
        width = self.edge_edges.shape[1]
        tangential = []
        for j in range(width):
            live = self.edge_edges[:, j] >= 0
            row = j // 2 if j < 8 else j - 4
            tangential.append((row * ne + e[live], self.edge_edges[live, j], self.edge_weights[live, j]))
        return TRSKTables(
            c1=c1, c2=c2, t1=t1, t2=t2,
            div=scatter_map((nc, ne), (c1, e, self.le), (c2, e, -self.le)),
            curl=scatter_map((nd, ne), (t2, e, self.de), (t1, e, -self.de)),
            ke=scatter_map((nc, ne), (c1, e, one), (c2, e, one)),
            inflow=scatter_map((nc, ne), (c1, e, -one), (c2, e, one)),
            kite=scatter_map((nd, nc), (np.repeat(np.arange(nd), 3), self.tri.ravel(), self.dual_kite.ravel())),
            perot=scatter_map(
                (3 * nc, ne),
                *((k * nc + c1, e, arm1[:, k]) for k in range(3)),
                *((k * nc + c2, e, -arm2[:, k]) for k in range(3)),
            ),
            tangential=scatter_map(((width - 4) * ne, ne), *tangential),
            kite_sum=np.sum(self.dual_kite, axis=1),
            ke_weight=0.25 * self.le * self.de,
        )

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(level: int, radius: float = EARTH_RADIUS) -> "IcosahedralGrid":
        """Generate the grid at subdivision ``level`` (0 = raw icosahedron)."""
        if level < 0:
            raise ValueError("level must be >= 0")
        verts, faces = _base_icosahedron()
        for _ in range(level):
            verts, faces = _subdivide(verts, faces)

        # Consistent outward-CCW triangle orientation.
        a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        outward = np.sum(np.cross(b - a, c - a) * (a + b + c), axis=-1)
        swap = outward < 0
        faces[swap] = faces[swap][:, [0, 2, 1]]

        nc = len(verts)
        nd = len(faces)

        # Edges: unique sorted vertex pairs numbered in first-appearance order,
        # each with its two adjacent triangles in face order.
        i, j = _face_sides(faces)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        edge_of_side, first = _first_appearance(lo * nc + hi)
        ne = len(first)
        edge_cells = np.stack([lo[first], hi[first]], axis=1)
        if np.any(np.bincount(edge_of_side, minlength=ne) != 2):
            raise RuntimeError("non-manifold mesh: every edge must touch 2 triangles")
        edge_dual = (np.argsort(edge_of_side, kind="stable") // 3).reshape(ne, 2)

        xyz_dual = triangle_circumcenter(
            verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        )

        xc1 = verts[edge_cells[:, 0]]
        xc2 = verts[edge_cells[:, 1]]
        xyz_edge = normalize(xc1 + xc2)
        # Normal: the c1->c2 chord projected into the tangent plane.
        chord = xc2 - xc1
        chord -= np.sum(chord * xyz_edge, axis=-1, keepdims=True) * xyz_edge
        nrm = normalize(chord)
        tng = np.cross(xyz_edge, nrm)  # up x n: +t is 90 deg CCW of n

        # Order dual pair so t2 sits on the +tangent side.
        d1 = xyz_dual[edge_dual[:, 0]]
        d2 = xyz_dual[edge_dual[:, 1]]
        wrong = np.sum((d2 - d1) * tng, axis=-1) < 0
        edge_dual[wrong] = edge_dual[wrong][:, ::-1]

        de = radius * arc_length(xc1, xc2)
        le = radius * arc_length(xyz_dual[edge_dual[:, 0]], xyz_dual[edge_dual[:, 1]])

        area_dual = radius**2 * spherical_triangle_area(
            verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        )

        # Edges around each cell (in edge order), padded to 6 slots.
        ends = edge_cells.ravel()
        cell_nedges = np.bincount(ends, minlength=nc)
        if cell_nedges.max() > 6:
            raise RuntimeError("unexpected cell degree > 6")
        by_cell = np.argsort(ends, kind="stable")
        first_slot = np.repeat(np.cumsum(cell_nedges) - cell_nedges, cell_nedges)
        ring = np.full((nc, 6), -1, dtype=np.int64)
        ring[ends[by_cell], np.arange(2 * ne) - first_slot] = by_cell // 2
        live = np.arange(6) < cell_nedges[:, None]

        # CCW ordering by angle in the local tangent basis (padded slots last);
        # the stacked matmul takes the per-cell ``rel @ north[c]`` BLAS path.
        east, north = tangent_basis(verts)
        rel = xyz_edge[ring] - verts[:, None]
        ang = np.arctan2(rel @ north[:, :, None], rel @ east[:, :, None])[..., 0]
        cell_edges = np.take_along_axis(ring, np.argsort(np.where(live, ang, np.inf), axis=1), axis=1)
        out_of_cell = edge_cells[cell_edges, 0] == np.arange(nc)[:, None]
        cell_edge_sign = np.where(live, np.where(out_of_cell, 1.0, -1.0), 0.0)
        # Slot j's dual vertex is the one triangle edges j and j+1 share.
        next_slot = np.where(np.arange(1, 7) < cell_nedges[:, None], np.arange(1, 7), 0)
        next_edges = np.take_along_axis(cell_edges, next_slot, axis=1)
        pair, pair_next = edge_dual[cell_edges], edge_dual[next_edges]
        shared = pair[..., :, None] == pair_next[..., None, :]
        if np.any(shared[live].sum(axis=(1, 2)) != 1):
            raise RuntimeError("cell edge ring is not consistent")
        in_pair = np.where(shared[..., 0, :].any(axis=-1), pair[..., 0], pair[..., 1])
        cell_vertices = np.where(live, in_pair, -1)

        # Voronoi cell areas from the ordered dual-corner ring, added slot by
        # slot from 0 (a padded slot adds +0.0).
        center = np.repeat(verts[:, None], 6, axis=1)
        corner = xyz_dual[cell_vertices]
        corner_next = xyz_dual[np.take_along_axis(cell_vertices, next_slot, axis=1)]
        sector = np.where(live, spherical_triangle_area(center, corner, corner_next), 0.0)
        area_cell = np.zeros(nc, dtype=np.float64)
        for j in range(6):
            area_cell += sector[:, j]
        area_cell *= radius**2

        # Kite areas R_{v,c}: region of cell c associated with dual corner v,
        # bounded by the midpoints of the two edges meeting at v.  Vertex
        # slot j (between edges j and j+1) pairs with those two edges.
        halves = spherical_triangle_area(
            np.stack([center, center]),
            np.stack([xyz_edge[cell_edges], corner]),
            np.stack([corner, xyz_edge[next_edges]]),
        )
        kite = np.where(live, halves[0] + halves[1], 0.0)
        kite /= kite.sum(axis=1, keepdims=True)  # TRSK needs sum_v R_{v,c} = 1

        # Kite areas regrouped around dual vertices (for PV thickness
        # averaging): dual_kite[t, k] is the kite of cell tri[t, k] at t.
        c, j = np.nonzero(live)
        v = cell_vertices[c, j]
        k = np.argmax(faces[v] == c[:, None], axis=1)
        dual_kite = np.zeros((nd, 3), dtype=np.float64)
        dual_kite[v, k] = kite[c, j] * area_cell[c]

        grid = IcosahedralGrid(
            level=level,
            radius=radius,
            xyz_cell=verts,
            xyz_dual=xyz_dual,
            xyz_edge=xyz_edge,
            tri=faces,
            edge_cells=edge_cells,
            edge_dual=edge_dual,
            normal=nrm,
            tangent=tng,
            de=de,
            le=le,
            area_cell=area_cell,
            area_dual=area_dual,
            cell_nedges=cell_nedges,
            cell_edges=cell_edges,
            cell_edge_sign=cell_edge_sign,
            cell_vertices=cell_vertices,
            kite=kite,
            dual_kite=dual_kite,
            edge_edges=np.empty(0),
            edge_weights=np.empty(0),
        )
        grid._build_trsk_weights()
        grid.lon_cell, grid.lat_cell = xyz_to_lonlat(verts)
        grid.lon_edge, grid.lat_edge = xyz_to_lonlat(xyz_edge)
        _, grid.lat_dual = xyz_to_lonlat(xyz_dual)
        return grid

    # -- TRSK tangential-reconstruction weights ----------------------------

    def _build_trsk_weights(self) -> None:
        """Weights ``w`` with ``v_e = sum_e' w[e, e'] u_e'`` (TRSK eq. 33),
        post-antisymmetrized in the energy norm ``K = diag(le*de) @ w`` so
        the nonlinear Coriolis term conserves kinetic energy to round-off.
        """
        ne = self.n_edges
        # One row per (edge, side): side 0 walks cell c1 with t_sign -1,
        # side 1 cell c2 with +1, from the edge after e round the ring.
        e = np.repeat(np.arange(ne), 2)
        c = self.edge_cells.ravel()
        t_sign = np.tile([-1.0, 1.0], ne)
        n = self.cell_nedges[c]
        ring = self.cell_edges[c]
        p = np.argmax(ring == e[:, None], axis=1)
        rsum = np.zeros(2 * ne)
        ep = np.empty((2 * ne, 5), dtype=np.int64)
        w = np.empty((2 * ne, 5))
        for j in range(1, 6):  # slots past a pentagon's ring are dropped below
            rsum += self.kite[c, (p + j - 1) % n]
            slot = (p + j) % n
            ep[:, j - 1] = ring[np.arange(2 * ne), slot]
            n_sign = self.cell_edge_sign[c, slot]
            w[:, j - 1] = ((self.le[ep[:, j - 1]] / self.de[e]) * (rsum - 0.5)) * n_sign * t_sign
        # Sum repeated (e, e') terms onto zeros in (edge, side, slot) order.
        live = np.arange(1, 6) < n[:, None]
        keys, inverse = np.unique((e[:, None] * ne + ep)[live], return_inverse=True)
        acc = np.zeros(len(keys))
        np.add.at(acc, inverse, w[live])

        # Antisymmetrize K[e, e'] = le_e * de_e * w[e, e'] from the pre-antisymmetry
        # K of both entries (the stencil is symmetric: e, e' share a cell ring).
        row, col = np.divmod(keys, ne)
        lede = self.le * self.de
        k = lede[row] * acc
        k_t = k[np.searchsorted(keys, col * ne + row)]
        k = np.where(row < col, 0.5 * (k - k_t), -(0.5 * (k_t - k)))

        counts = np.bincount(row, minlength=ne)
        slot = np.arange(len(keys)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.edge_edges = np.full((ne, counts.max()), -1, dtype=np.int64)
        self.edge_weights = np.zeros((ne, counts.max()), dtype=np.float64)
        self.edge_edges[row, slot] = col
        self.edge_weights[row, slot] = k / lede[row]

    # -- vector helpers -----------------------------------------------------

    def project_to_edges(self, vec_field) -> np.ndarray:
        """Normal components ``u_e`` of an analytic vector field.

        ``vec_field(xyz) -> (n, 3)`` tangent vectors at the given points.
        """
        vecs = np.asarray(vec_field(self.xyz_edge))
        return np.sum(vecs * self.normal, axis=-1)

    def tangential_of(self, vec_field) -> np.ndarray:
        """Analytic tangential components at edges (for testing TRSK)."""
        vecs = np.asarray(vec_field(self.xyz_edge))
        return np.sum(vecs * self.tangent, axis=-1)
