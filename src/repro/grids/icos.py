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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

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


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    cache: Dict[Tuple[int, int], int] = {}
    new_verts: List[np.ndarray] = list(verts)

    def midpoint(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        idx = cache.get(key)
        if idx is None:
            idx = len(new_verts)
            new_verts.append(normalize(verts[a] + verts[b]))
            cache[key] = idx
        return idx

    new_faces = np.empty((len(faces) * 4, 3), dtype=np.int64)
    for i, (a, b, c) in enumerate(faces):
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces[4 * i : 4 * i + 4] = [
            (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)
        ]
    return np.array(new_verts), new_faces


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

        # Edges: unique sorted vertex pairs, with adjacent triangles.
        edge_index: Dict[Tuple[int, int], int] = {}
        edge_cells_list: List[Tuple[int, int]] = []
        edge_tris: List[List[int]] = []
        for t, (i, j, k) in enumerate(faces):
            for va, vb in ((i, j), (j, k), (k, i)):
                key = (va, vb) if va < vb else (vb, va)
                e = edge_index.get(key)
                if e is None:
                    e = len(edge_cells_list)
                    edge_index[key] = e
                    edge_cells_list.append(key)
                    edge_tris.append([])
                edge_tris[e].append(t)
        ne = len(edge_cells_list)
        edge_cells = np.array(edge_cells_list, dtype=np.int64)
        if any(len(ts) != 2 for ts in edge_tris):
            raise RuntimeError("non-manifold mesh: every edge must touch 2 triangles")
        edge_dual = np.array(edge_tris, dtype=np.int64)

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

        # Edges around each cell.
        cell_edge_lists: List[List[int]] = [[] for _ in range(nc)]
        for e, (v1, v2) in enumerate(edge_cells):
            cell_edge_lists[v1].append(e)
            cell_edge_lists[v2].append(e)
        maxdeg = max(len(l) for l in cell_edge_lists)
        if maxdeg > 6:
            raise RuntimeError("unexpected cell degree > 6")

        cell_nedges = np.array([len(l) for l in cell_edge_lists], dtype=np.int64)
        cell_edges = np.full((nc, 6), -1, dtype=np.int64)
        cell_edge_sign = np.zeros((nc, 6), dtype=np.float64)
        cell_vertices = np.full((nc, 6), -1, dtype=np.int64)

        # CCW ordering by angle in the local tangent basis.
        east, north = tangent_basis(verts)
        for c in range(nc):
            edges = cell_edge_lists[c]
            mids = xyz_edge[edges]
            rel = mids - verts[c]
            ang = np.arctan2(rel @ north[c], rel @ east[c])
            order = np.argsort(ang)
            edges = [edges[i] for i in order]
            n = len(edges)
            cell_edges[c, :n] = edges
            for j, e in enumerate(edges):
                cell_edge_sign[c, j] = 1.0 if edge_cells[e, 0] == c else -1.0
                e_next = edges[(j + 1) % n]
                shared = set(edge_dual[e]) & set(edge_dual[e_next])
                if len(shared) != 1:
                    raise RuntimeError("cell edge ring is not consistent")
                cell_vertices[c, j] = shared.pop()

        # Voronoi cell areas from the ordered dual-corner ring.
        area_cell = np.zeros(nc, dtype=np.float64)
        for c in range(nc):
            n = cell_nedges[c]
            ring = cell_vertices[c, :n]
            for j in range(n):
                area_cell[c] += spherical_triangle_area(
                    verts[c], xyz_dual[ring[j]], xyz_dual[ring[(j + 1) % n]]
                )
        area_cell *= radius**2

        # Kite areas R_{v,c}: region of cell c associated with dual corner v,
        # bounded by the midpoints of the two edges meeting at v.  Vertex
        # slot j (between edges j and j+1) pairs with those two edges.
        kite = np.zeros((nc, 6), dtype=np.float64)
        for c in range(nc):
            n = cell_nedges[c]
            for j in range(n):
                e1 = cell_edges[c, j]
                e2 = cell_edges[c, (j + 1) % n]
                v = cell_vertices[c, j]
                kite[c, j] = spherical_triangle_area(
                    verts[c], xyz_edge[e1], xyz_dual[v]
                ) + spherical_triangle_area(verts[c], xyz_dual[v], xyz_edge[e2])
            kite[c, :n] /= kite[c, :n].sum()  # TRSK needs sum_v R_{v,c} = 1

        # Kite areas regrouped around dual vertices (for PV thickness
        # averaging): dual_kite[t, k] is the kite of cell tri[t, k] at t.
        dual_kite = np.zeros((nd, 3), dtype=np.float64)
        for c in range(nc):
            n = cell_nedges[c]
            for j in range(n):
                v = cell_vertices[c, j]
                k = int(np.where(faces[v] == c)[0][0])
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
        acc: List[Dict[int, float]] = [dict() for _ in range(ne)]
        for e in range(ne):
            for c, t_sign in ((self.edge_cells[e, 0], -1.0), (self.edge_cells[e, 1], 1.0)):
                n = int(self.cell_nedges[c])
                ring = self.cell_edges[c, :n]
                p = int(np.where(ring == e)[0][0])
                rsum = 0.0
                for j in range(1, n):
                    v_slot = (p + j - 1) % n
                    rsum += self.kite[c, v_slot]
                    ep = int(ring[(p + j) % n])
                    n_sign = self.cell_edge_sign[c, (p + j) % n]
                    w = (self.le[ep] / self.de[e]) * (rsum - 0.5) * n_sign * t_sign
                    acc[e][ep] = acc[e].get(ep, 0.0) + w

        # Antisymmetrize K[e, e'] = le_e * de_e * w[e, e'].
        kmat: Dict[Tuple[int, int], float] = {}
        for e, row in enumerate(acc):
            for ep, w in row.items():
                kmat[(e, ep)] = self.le[e] * self.de[e] * w
        for (e, ep) in list(kmat.keys()):
            if e < ep:
                a = kmat.get((e, ep), 0.0)
                b = kmat.get((ep, e), 0.0)
                anti = 0.5 * (a - b)
                kmat[(e, ep)] = anti
                kmat[(ep, e)] = -anti

        rows: List[List[Tuple[int, float]]] = [[] for _ in range(ne)]
        for (e, ep), k in kmat.items():
            rows[e].append((ep, k / (self.le[e] * self.de[e])))
        maxk = max(len(r) for r in rows)
        self.edge_edges = np.full((ne, maxk), -1, dtype=np.int64)
        self.edge_weights = np.zeros((ne, maxk), dtype=np.float64)
        for e, row in enumerate(rows):
            row.sort()
            for j, (ep, w) in enumerate(row):
                self.edge_edges[e, j] = ep
                self.edge_weights[e, j] = w

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
