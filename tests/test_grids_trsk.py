"""Tests for the TRSK mimetic operators: the discrete conservation
properties the dycore's stability rests on."""

import numpy as np
import pytest

from repro.grids import trsk


W = 1e-5  # solid-body angular rate (rad/s)


def _solid_body(grid, axis=(0.0, 0.0, 1.0)):
    def vf(xyz):
        return W * np.cross(np.asarray(axis, dtype=float), xyz) * grid.radius

    return vf


def test_divergence_of_solid_body_is_tiny(icos4):
    u = icos4.project_to_edges(_solid_body(icos4))
    div = trsk.divergence(icos4, u)
    scale = np.abs(u).max() / icos4.de.mean()
    assert np.abs(div).max() < 1e-3 * scale


def test_divergence_of_constant_normal_field_integrates_to_zero(icos4):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(icos4.n_edges)
    total = np.sum(icos4.area_cell * trsk.divergence(icos4, u))
    # Every edge flux appears with +/- once: global integral is round-off.
    assert abs(total) < 1e-6 * np.abs(icos4.le * u).sum()


def test_gradient_of_constant_is_zero(icos4):
    g = trsk.gradient(icos4, np.full(icos4.n_cells, 7.3))
    assert np.allclose(g, 0.0, atol=1e-18)


def test_div_grad_adjointness(icos4):
    """sum_c A_c phi div(u) == -sum_e le de grad(phi) u : exact (energy
    conservation of the pressure term)."""
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(icos4.n_cells)
    u = rng.standard_normal(icos4.n_edges)
    lhs = np.sum(icos4.area_cell * phi * trsk.divergence(icos4, u))
    rhs = -np.sum(icos4.le * icos4.de * trsk.gradient(icos4, phi) * u)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_curl_of_solid_body_is_2w_sinlat(icos4):
    u = icos4.project_to_edges(_solid_body(icos4))
    zeta = trsk.curl(icos4, u)
    expected = 2.0 * W * np.sin(icos4.lat_dual)
    assert np.abs(zeta - expected).max() < 0.02 * 2.0 * W


def test_curl_of_gradient_is_zero(icos4):
    """Discrete curl(grad) = 0 exactly: the mimetic property."""
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(icos4.n_cells)
    zeta = trsk.curl(icos4, trsk.gradient(icos4, phi))
    scale = np.abs(phi).max() / icos4.area_dual.mean() * icos4.de.mean()
    assert np.abs(zeta).max() < 1e-12 * scale


def test_global_circulation_zero(icos4):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(icos4.n_edges)
    total = np.sum(icos4.area_dual * trsk.curl(icos4, u))
    assert abs(total) < 1e-6 * np.abs(icos4.de * u).sum()


def test_tangential_reconstruction_accuracy(icos4):
    """TRSK tangential winds: accurate in RMS; max error is localized at
    the 12 pentagons (known property of the scheme)."""
    vf = _solid_body(icos4)
    u = icos4.project_to_edges(vf)
    vt = trsk.tangential(icos4, u)
    vt_exact = icos4.tangential_of(vf)
    scale = np.abs(vt_exact).max()
    rms = np.sqrt(np.mean((vt - vt_exact) ** 2)) / scale
    assert rms < 0.03
    assert np.abs(vt - vt_exact).max() / scale < 0.15


def test_tangential_rms_converges(icos3, icos4):
    def rms_err(grid):
        vf = _solid_body(grid, axis=(0.0, 1.0, 0.0))
        u = grid.project_to_edges(vf)
        err = trsk.tangential(grid, u) - grid.tangential_of(vf)
        return np.sqrt(np.mean(err**2)) / np.abs(grid.tangential_of(vf)).max()

    assert rms_err(icos4) < 0.8 * rms_err(icos3)


def test_coriolis_energy_neutrality(icos4):
    """The PV-flux operator must not change kinetic energy: for any u, q,
    sum_e le de u_e q_e tangential(u*h)_e with the symmetric q pairing is
    zero to round-off thanks to the antisymmetrized weights."""
    rng = np.random.default_rng(4)
    u = rng.standard_normal(icos4.n_edges)
    # Constant q and h: the exactly-neutral case.
    e = np.sum(icos4.le * icos4.de * u * trsk.tangential(icos4, u))
    assert abs(e) < 1e-10 * np.sum(icos4.le * icos4.de * u * u)


def test_cell_to_edge_preserves_constants(icos4):
    assert np.allclose(trsk.cell_to_edge(icos4, np.full(icos4.n_cells, 3.0)), 3.0)


def test_cell_to_dual_preserves_constants(icos4):
    assert np.allclose(trsk.cell_to_dual(icos4, np.full(icos4.n_cells, 2.5)), 2.5)


def test_dual_to_edge_preserves_constants(icos4):
    assert np.allclose(trsk.dual_to_edge(icos4, np.full(icos4.n_dual, 1.5)), 1.5)


def test_kinetic_energy_positive_and_consistent(icos4):
    """Global KE from cells equals the edge-quadrature KE identically."""
    rng = np.random.default_rng(5)
    u = rng.standard_normal(icos4.n_edges)
    ke_cells = np.sum(icos4.area_cell * trsk.kinetic_energy_cell(icos4, u))
    ke_edges = np.sum(0.5 * icos4.le * icos4.de * u * u)
    assert ke_cells == pytest.approx(ke_edges, rel=1e-12)
    assert np.all(trsk.kinetic_energy_cell(icos4, u) >= 0)


def test_kinetic_energy_of_solid_body(icos4):
    """KE of solid-body flow ~ integral of |V|^2/2 over the sphere."""
    vf = _solid_body(icos4)
    u = icos4.project_to_edges(vf)
    ke = np.sum(icos4.area_cell * trsk.kinetic_energy_cell(icos4, u))
    # |V|^2 = (W R cos(lat))^2; sphere mean of cos^2(lat) = 2/3.
    exact = 0.5 * (W * icos4.radius) ** 2 * (2.0 / 3.0) * 4 * np.pi * icos4.radius**2
    assert ke == pytest.approx(exact, rel=0.05)


def test_laplacian_smooths(icos4):
    """The vector Laplacian of a random field must reduce its energy when
    used as a diffusion tendency (negative-semidefinite operator)."""
    rng = np.random.default_rng(6)
    u = rng.standard_normal(icos4.n_edges)
    lap = trsk.laplacian_edge(icos4, u)
    de_dt = np.sum(icos4.le * icos4.de * u * lap)
    assert de_dt < 0


# -- cached TRSK tables: bitwise equal to the mesh arrays they replace -----------
#
# The operators read static index columns / masks / weights from
# ``grid.trsk_tables``.  The literal, table-free forms below are the
# reference: same float operations in the same order, so the comparison is
# exact (``tobytes``: signed zeros count too).


def _ref_divergence(g, u):
    flux = g.le * u
    div = np.zeros(g.n_cells, dtype=np.float64)
    np.add.at(div, g.edge_cells[:, 0], flux)
    np.add.at(div, g.edge_cells[:, 1], -flux)
    return div / g.area_cell


def _ref_gradient(g, phi):
    return (phi[g.edge_cells[:, 1]] - phi[g.edge_cells[:, 0]]) / g.de


def _ref_curl(g, u):
    circ = g.de * u
    zeta = np.zeros(g.n_dual, dtype=np.float64)
    np.add.at(zeta, g.edge_dual[:, 1], circ)
    np.add.at(zeta, g.edge_dual[:, 0], -circ)
    return zeta / g.area_dual


def _ref_tangential(g, u):
    ee = g.edge_edges
    mask = ee >= 0
    vals = u[np.where(mask, ee, 0)]
    return np.sum(g.edge_weights * np.where(mask, vals, 0.0), axis=1)


def _ref_cell_to_edge(g, phi):
    return 0.5 * (phi[g.edge_cells[:, 0]] + phi[g.edge_cells[:, 1]])


def _ref_dual_to_edge(g, psi):
    return 0.5 * (psi[g.edge_dual[:, 0]] + psi[g.edge_dual[:, 1]])


def _ref_cell_to_dual(g, phi):
    weighted = np.sum(g.dual_kite * phi[g.tri], axis=1)
    return weighted / np.sum(g.dual_kite, axis=1)


def _ref_kinetic_energy_cell(g, u):
    contrib = 0.25 * g.le * g.de * u * u
    ke = np.zeros(g.n_cells, dtype=np.float64)
    np.add.at(ke, g.edge_cells[:, 0], contrib)
    np.add.at(ke, g.edge_cells[:, 1], contrib)
    return ke / g.area_cell


def _ref_laplacian_edge(g, u):
    zeta = _ref_curl(g, u)
    grad_div = _ref_gradient(g, _ref_divergence(g, u))
    dzeta = (zeta[g.edge_dual[:, 1]] - zeta[g.edge_dual[:, 0]]) / g.le
    return grad_div - dzeta


def _ref_cell_vector(g, u):
    c1, c2 = g.edge_cells[:, 0], g.edge_cells[:, 1]
    vec = np.zeros((g.n_cells, 3))
    np.add.at(vec, c1, (g.le * u)[:, None] * (g.xyz_edge - g.xyz_cell[c1]))
    np.add.at(vec, c2, -(g.le * u)[:, None] * (g.xyz_edge - g.xyz_cell[c2]))
    return (vec * (g.radius / g.area_cell[:, None])).T


_EDGE_OPS = ["divergence", "curl", "tangential", "kinetic_energy_cell", "laplacian_edge", "cell_vector"]
_CELL_OPS = ["gradient", "cell_to_edge", "cell_to_dual"]


@pytest.mark.parametrize("k", range(1, 16))
def test_column_sums_are_numpys_row_sum(k):
    """``term_sum`` (1..7 terms) and ``pairwise_finish`` (8..15) spell out
    numpy's pairwise order; this pins them against ``np.sum(axis=1)`` on
    the installed numpy, signed zeros and non-finite rows included."""
    rng = np.random.default_rng(k)
    rows = rng.standard_normal((4000, k)) * 10.0 ** rng.integers(-12, 12, (4000, k))
    rows[:5] = -0.0
    rows[5:10, 0] = -0.0
    rows[10:15] = np.where(rng.random((5, k)) < 0.5, -0.0, 0.0)
    rows[15, -1] = np.inf
    rows[16, 0] = np.nan
    rows[17] = rows[17, 0]
    rows[17, k // 2 :] *= -1.0
    p = np.ascontiguousarray(rows.T)
    got = trsk.term_sum(p) if k < 8 else trsk.pairwise_finish(p[0:8:2] + p[1:8:2], p[8:])
    assert got.tobytes() == np.sum(rows, axis=1).tobytes()


def _hard_rows(rng, shape):
    """Mixed magnitudes, cancellation, signed zeros and non-finite rows."""
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    rows[:5] = -0.0
    rows[5:10, 0] = -0.0
    rows[10:15] = np.where(rng.random((5, shape[1])) < 0.5, -0.0, 0.0)
    rows[15, -1] = np.inf
    rows[16, 0] = np.nan
    rows[17, 0] = -np.inf
    rows[18] = rows[18, 0]
    rows[18, shape[1] // 2 :] *= -1.0
    rows[19, ::2] = 1e16
    rows[19, 1::2] = 1.0
    return rows


def test_pairwise_sum_is_numpys_add_reduce():
    """``pairwise_sum`` over the leading axis equals ``np.add.reduce`` of
    each contiguous row bitwise, for every length through both of numpy's
    block sizes (8 accumulators, halving above 128)."""
    rng = np.random.default_rng(2024)
    for n in range(1, 301):
        rows = _hard_rows(rng, (400, n))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.add.reduce(rows, axis=1)
            got = trsk.pairwise_sum(np.ascontiguousarray(rows.T))
        assert got.tobytes() == want.tobytes(), n
        if n >= 8:  # the order is what is pinned: left to right differs
            assert np.cumsum(rows, axis=1)[:, -1].tobytes() != want.tobytes(), n


def test_level_product_is_numpys_prod():
    """The cloud overlap's product down 30 levels, taken left to right as
    whole rows, is ``np.prod`` over a contiguous row bitwise."""
    rng = np.random.default_rng(30)
    rows = rng.uniform(0.5, 1.0, (4000, 30)) * 10.0 ** rng.integers(-40, 40, (4000, 30))
    rows[:5, 3] = -0.0
    rows[5, 7] = np.inf
    rows[6, 0] = np.nan
    rows[7, 1] = 0.0
    rows[7, 2] = np.inf
    p = np.ascontiguousarray(rows.T)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = p[0].copy()
        for row in p[1:]:
            got *= row
        want = np.prod(rows, axis=1)
        reversed_order = np.prod(rows[:, ::-1], axis=1)
    assert got.tobytes() == want.tobytes()
    assert reversed_order.tobytes() != want.tobytes()


def test_term_sum_takes_short_rows_only():
    for k in (0, 8):
        with pytest.raises(ValueError, match="1..7"):
            trsk.term_sum(np.zeros((k, 3)))


@pytest.fixture(scope="module")
def small_grids(icos3):
    from repro.grids import IcosahedralGrid

    return [IcosahedralGrid.build(1), IcosahedralGrid.build(2), icos3]


def test_cached_operators_equal_uncached_reference_bitwise(small_grids):
    for g in small_grids:
        # The 12 pentagons are in play: their 60 edges have a padded slot.
        assert int(np.sum(g.cell_nedges == 5)) == 12
        assert int((g.edge_edges < 0).any(axis=1).sum()) == 60
        rng = np.random.default_rng(100 + g.level)
        # Random fields, and fields of signed zeros only (sums that are zero
        # must come out with numpy's sign).
        for draw in (rng.standard_normal, lambda n: np.where(rng.random(n) < 0.5, -0.0, 0.0)):
            fields = {
                **{op: draw(g.n_edges) for op in _EDGE_OPS},
                **{op: draw(g.n_cells) for op in _CELL_OPS},
                "dual_to_edge": draw(g.n_dual),
            }
            for op, x in fields.items():
                got = getattr(trsk, op)(g, x)
                ref = globals()[f"_ref_{op}"](g, x)
                assert np.array_equal(got, ref), (g.level, op)
                assert got.tobytes() == ref.tobytes(), (g.level, op)


def test_trsk_tables_belong_to_one_grid():
    """Tables are owned by the grid object: built once, never shared —
    not between two grids of one process, not through a partition."""
    from repro.grids import IcosahedralGrid, IcosPartition

    a = IcosahedralGrid.build(2)
    b = IcosahedralGrid.build(2, radius=2.0 * a.radius)
    c = IcosahedralGrid.build(1)
    assert a.trsk_tables is a.trsk_tables  # built once
    for other in (b, c):
        assert other.trsk_tables is not a.trsk_tables
        for name in ("c1", "c2", "t1", "t2", "kite_sum", "ke_weight"):
            assert not np.shares_memory(
                getattr(other.trsk_tables, name), getattr(a.trsk_tables, name)
            ), name
        for name in ("div", "curl", "ke", "inflow", "kite", "perot", "tangential"):
            theirs, ours = getattr(other.trsk_tables, name), getattr(a.trsk_tables, name)
            assert not np.shares_memory(theirs.data, ours.data), name
            assert not ours.data.flags.writeable and not ours.indices.flags.writeable, name
    # Same connectivity, different geometry: each grid reads its own weights.
    assert np.array_equal(a.trsk_tables.c1, b.trsk_tables.c1)
    assert np.array_equal(b.trsk_tables.ke_weight, 0.25 * b.le * b.de)
    assert not np.array_equal(a.trsk_tables.ke_weight, b.trsk_tables.ke_weight)
    assert c.trsk_tables.c1.shape == (c.n_edges,) != a.trsk_tables.c1.shape
    u = np.random.default_rng(7).standard_normal(b.n_edges)
    assert np.array_equal(trsk.kinetic_energy_cell(b, u), _ref_kinetic_energy_cell(b, u))

    # A repaired partition keeps pointing at its own grid (and its tables).
    part = IcosPartition.build(a, 4)
    shrunk = part.shrink([1])
    assert shrunk.grid is a and shrunk.grid.trsk_tables is a.trsk_tables
    other = IcosPartition.from_owners(b, shrunk.owners, shrunk.n_ranks)
    assert other.grid.trsk_tables is b.trsk_tables


def test_cached_tables_keep_dycore_invariants():
    """Mass to round-off and an energy-neutral Coriolis term, on a grid
    whose tables were already warm before the dycore saw it."""
    from repro.atm.dycore import ShallowWaterDycore, williamson_tc2
    from repro.grids import IcosahedralGrid

    g = IcosahedralGrid.build(2)
    _ = g.trsk_tables
    dyc = ShallowWaterDycore(g)
    state = williamson_tc2(g)
    state.u = state.u + np.random.default_rng(3).standard_normal(g.n_edges)
    mass0 = dyc.total_mass(state)
    dt = dyc.max_stable_dt(state)
    for _ in range(5):
        state = dyc.step_rk4(state, dt)
    assert abs(dyc.total_mass(state) - mass0) < 1e-12 * abs(mass0)
    u = state.u
    e = np.sum(g.le * g.de * u * trsk.tangential(g, u))
    assert abs(e) < 1e-10 * np.sum(g.le * g.de * u * u)
