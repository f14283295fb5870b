"""Table 1: model configurations and grid counts.

Regenerates the published grid counts from first principles — icosahedral
Euler relations for GRIST (including the table's counting-convention
quirk), nlon x nlat x levels for LICOM, and the coupled totals — and
verifies them against really-constructed meshes at levels 4, 5 and 6.
The timed kernel is the level-4 mesh generator itself.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.bench import banner, format_table
from repro.esm import (
    AP3ESM_CONFIGS,
    GRIST_CONFIGS,
    LICOM_CONFIGS,
    grist_counts_from_hexagons,
    grist_counts_from_triangles,
    licom_grid_points,
)
from repro.grids import IcosahedralGrid, icosahedral_counts


def test_table1_report(emit_report):
    rows = []
    for res, cfg in sorted(GRIST_CONFIGS.items()):
        if cfg.convention == "triangle":
            edges, vertices = grist_counts_from_triangles(cfg.cells)
        else:
            edges, vertices = grist_counts_from_hexagons(cfg.cells)
        rows.append((
            f"{res:g} km", f"L{cfg.icos_level}", f"{cfg.cells:.2e}",
            f"{cfg.edges:.2e}", f"{edges:.2e}",
            f"{cfg.vertices:.2e}", f"{vertices:.2e}",
        ))
    grist = format_table(
        ["GRIST res", "level", "cells(pub)", "edges(pub)", "edges(calc)",
         "verts(pub)", "verts(calc)"],
        rows,
    )

    rows = []
    for res, cfg in sorted(LICOM_CONFIGS.items()):
        rows.append((
            f"{res:g} km", cfg.nlon, cfg.nlat, f"{cfg.grid_points:.2e}",
            f"{licom_grid_points(cfg):.2e}",
        ))
    licom = format_table(
        ["LICOM res", "nlon", "nlat", "points(pub)", "points(calc)"], rows
    )

    rows = []
    for label, pairing in AP3ESM_CONFIGS.items():
        combined = pairing.atm.grid_points + pairing.ocn.grid_points
        rows.append((label, f"{pairing.total_grid_points:.2e}", f"{combined:.2e}"))
    coupled = format_table(["AP3ESM", "total(pub)", "atm+ocn(calc)"], rows)

    emit_report(
        "table1_configs",
        "\n".join([
            banner("Table 1 — model configurations (paper vs recomputed)"),
            grist,
            "",
            licom,
            "",
            coupled,
            "",
            "note: the 1-km GRIST row counts triangles (2:3:1); the other "
            "rows count hexagons (1:3:2) — both satisfy the icosahedral "
            "Euler relations at integer subdivision levels 8-12.",
        ]),
    )

    # The checks behind the printed table.
    nc, ne, nd = icosahedral_counts(12)
    assert nd == pytest.approx(GRIST_CONFIGS[1.0].cells, rel=0.02)
    assert licom_grid_points(LICOM_CONFIGS[1.0]) == pytest.approx(6.3e10, rel=0.01)


def test_generated_mesh_matches_formula(benchmark):
    """Benchmark the mesh generator; verify counts against the formula."""
    grid = benchmark(IcosahedralGrid.build, 4)
    assert (grid.n_cells, grid.n_edges, grid.n_dual) == icosahedral_counts(4)
    assert grid.n_cells - grid.n_edges + grid.n_dual == 2
    total = 4 * np.pi * grid.radius**2
    assert grid.area_cell.sum() == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("level", [5, 6])
def test_larger_mesh_matches_formula(level):
    """Levels 5 and 6 (10 242 and 40 962 cells): counts, Euler, areas that
    tile the sphere, kites that sum to 1 per cell, and the energy-norm
    antisymmetry of the TRSK weights, ``K = diag(le*de) w = -K^T``."""
    grid = IcosahedralGrid.build(level)
    assert (grid.n_cells, grid.n_edges, grid.n_dual) == icosahedral_counts(level)
    assert grid.n_cells - grid.n_edges + grid.n_dual == 2
    total = 4 * np.pi * grid.radius**2
    assert grid.area_cell.sum() == pytest.approx(total, rel=1e-9)
    assert np.allclose(grid.kite.sum(axis=1), 1.0, atol=1e-12)
    live = grid.edge_edges >= 0
    rows = np.nonzero(live)[0]
    k = csr_matrix(
        ((grid.le * grid.de)[rows] * grid.edge_weights[live], (rows, grid.edge_edges[live])),
        shape=(grid.n_edges, grid.n_edges),
    )
    assert abs(k + k.T).max() <= 1e-12 * abs(k).max()
