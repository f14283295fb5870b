"""Tests for the icosahedral Voronoi C-grid generator."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.grids import IcosahedralGrid, icosahedral_counts


def test_counts_formula():
    assert icosahedral_counts(0) == (12, 30, 20)
    assert icosahedral_counts(3) == (642, 1920, 1280)
    with pytest.raises(ValueError):
        icosahedral_counts(-1)


def test_counts_match_table1_ratios():
    """Table 1 reports cells:edges:vertices = 2:3:1 in triangle counting:
    our (triangles, edges, cells) ratios must match (= 2 : 3 : 1)."""
    nc, ne, nd = icosahedral_counts(6)
    assert nd / nc == pytest.approx(2.0, rel=0.01)   # triangles ~ 2x hex cells
    assert ne / nc == pytest.approx(3.0, rel=0.01)


def test_table1_extrapolation_to_paper_scales():
    """The paper's 1-km grid: 3.4e8 'cells' (triangles), 5.0e8 edges,
    1.7e8 vertices -> our level-13 counts land in that decade with the
    exact Euler relations."""
    nc, ne, nd = icosahedral_counts(13)
    # nd = triangles: 20*4^13 = 1.34e9; level 12 gives 3.36e8 ~ paper's 3.4e8.
    nc12, ne12, nd12 = icosahedral_counts(12)
    assert nd12 == pytest.approx(3.4e8, rel=0.02)
    assert ne12 == pytest.approx(5.0e8, rel=0.02)
    assert nc12 == pytest.approx(1.7e8, rel=0.02)


def test_build_counts(icos3):
    assert (icos3.n_cells, icos3.n_edges, icos3.n_dual) == icosahedral_counts(3)


def test_euler_formula(icos3):
    assert icos3.n_cells - icos3.n_edges + icos3.n_dual == 2


def test_twelve_pentagons(icos4):
    assert int(np.sum(icos4.cell_nedges == 5)) == 12
    assert int(np.sum(icos4.cell_nedges == 6)) == icos4.n_cells - 12


def test_cell_areas_tile_sphere(icos3):
    total = 4 * np.pi * icos3.radius**2
    assert icos3.area_cell.sum() == pytest.approx(total, rel=1e-10)
    assert icos3.area_dual.sum() == pytest.approx(total, rel=1e-10)


def test_areas_nearly_uniform(icos4):
    ratio = icos4.area_cell.max() / icos4.area_cell.min()
    assert ratio < 2.0  # icosahedral grids are quasi-uniform


def test_mean_spacing_vs_resolution_formula(icos4):
    # ~450 km at level 4 (2562 cells).
    assert icos4.mean_cell_spacing_km == pytest.approx(446.0, rel=0.02)


def test_normals_tangents_orthonormal(icos3):
    g = icos3
    assert np.allclose(np.sum(g.normal * g.xyz_edge, axis=-1), 0.0, atol=1e-12)
    assert np.allclose(np.sum(g.tangent * g.xyz_edge, axis=-1), 0.0, atol=1e-12)
    assert np.allclose(np.sum(g.normal * g.tangent, axis=-1), 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(g.normal, axis=-1), 1.0)


def test_normal_points_c1_to_c2(icos3):
    g = icos3
    chord = g.xyz_cell[g.edge_cells[:, 1]] - g.xyz_cell[g.edge_cells[:, 0]]
    assert np.all(np.sum(chord * g.normal, axis=-1) > 0)


def test_dual_order_matches_tangent(icos3):
    g = icos3
    d = g.xyz_dual[g.edge_dual[:, 1]] - g.xyz_dual[g.edge_dual[:, 0]]
    assert np.all(np.sum(d * g.tangent, axis=-1) > 0)


def test_edge_lengths_positive_and_sane(icos3):
    g = icos3
    assert np.all(g.de > 0)
    assert np.all(g.le > 0)
    # On a quasi-uniform hex grid le/de ~ 1/sqrt(3) (dual edges shorter).
    assert 0.3 < np.median(g.le / g.de) < 0.8


def test_cell_edge_ring_is_closed(icos3):
    """Consecutive edges around a cell must share exactly the recorded
    dual vertex, and the vertex ring must contain distinct triangles."""
    g = icos3
    for c in [0, 11, 100, 641]:
        n = g.cell_nedges[c]
        ring_v = g.cell_vertices[c, :n]
        assert len(set(ring_v.tolist())) == n


def test_cell_edge_signs(icos3):
    g = icos3
    for c in [0, 50, 300]:
        n = g.cell_nedges[c]
        for j in range(n):
            e = g.cell_edges[c, j]
            sign = g.cell_edge_sign[c, j]
            if sign > 0:
                assert g.edge_cells[e, 0] == c
            else:
                assert g.edge_cells[e, 1] == c


def test_kites_sum_to_one(icos3):
    sums = icos3.kite.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_dual_kites_cover_dual_area(icos3):
    """Kites regrouped around a dual vertex approximate the dual area."""
    g = icos3
    per_vertex = g.dual_kite.sum(axis=1)
    assert np.all(per_vertex > 0)
    assert np.allclose(per_vertex, g.area_dual, rtol=0.15)


def test_trsk_weight_antisymmetry(icos3):
    """The energy form K[e,e'] = le*de*w[e,e'] must be exactly
    antisymmetric (enforced at build; this checks the stored table)."""
    g = icos3
    k = {}
    for e in range(g.n_edges):
        for j in range(g.edge_edges.shape[1]):
            ep = g.edge_edges[e, j]
            if ep >= 0:
                k[(e, int(ep))] = g.le[e] * g.de[e] * g.edge_weights[e, j]
    for (e, ep), val in k.items():
        assert k.get((ep, e), 0.0) == pytest.approx(-val, abs=1e-9 * max(1.0, abs(val)))


def test_build_rejects_negative_level():
    with pytest.raises(ValueError):
        IcosahedralGrid.build(-1)


def test_latlon_fields_present(icos3):
    g = icos3
    assert g.lon_cell.shape == (g.n_cells,)
    assert np.all(np.abs(g.lat_cell) <= np.pi / 2)
    assert g.lat_dual.shape == (g.n_dual,)


# SHA-256 over every ndarray field of IcosahedralGrid and every TRSKTables
# array (each map's data / indices / indptr), recorded from the per-cell loop
# build that the whole-mesh array build replaced.  Every state digest rests on
# these bytes: a mismatch is a real change of the grid, not a constant to refresh.
MESH_SHA256 = {
    0: "e270d210ff0d4d60139201ade538fe23801a17e1fa19e6942862834b0e2755b4",
    1: "97513417099729485594ea95c9ee8a6d0c4a108628e2ec499fb936413f2ded9e",
    2: "e849eab62127de45d84a2dcba7ac8a88a64ddcba6402c7753f440d36cca49984",
    3: "e7083a1de86ca1ba49aa4489015ba7410700b158b4fbc22d4e26860001ecfe76",
    4: "e607e642306ba864c06bfccd2a448e0067bbf746165ad8700ac7f248e62d6587",
}


def _mesh_sha256(g):
    h = hashlib.sha256()
    for obj in (g, g.trsk_tables):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, csr_matrix):
                parts = [(f"{f.name}.{a}", getattr(value, a)) for a in ("data", "indices", "indptr")]
            elif isinstance(value, np.ndarray):
                parts = [(f.name, value)]
            else:
                continue
            for name, a in parts:
                h.update(f"{name}:{a.dtype.str}:{a.shape}:{a.strides}".encode())
                h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("level", sorted(MESH_SHA256))
def test_mesh_bytes_pinned(level, request):
    g = request.getfixturevalue(f"icos{level}") if level >= 3 else IcosahedralGrid.build(level)
    assert _mesh_sha256(g) == MESH_SHA256[level]
