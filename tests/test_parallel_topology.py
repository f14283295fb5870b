"""Tests for communication-topology analysis and rank remapping."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import (
    Placement,
    comm_graph_from_matrix,
    greedy_locality_mapping,
    traffic_split,
)


def _ring_matrix(p, nbytes=100):
    mat = np.zeros((p, p), dtype=np.int64)
    for r in range(p):
        mat[r, (r + 1) % p] = nbytes
    return mat


def test_comm_graph_symmetrizes():
    g = comm_graph_from_matrix(_ring_matrix(4))
    assert g.number_of_nodes() == 4
    assert g.number_of_edges() == 4
    assert g.edges[0, 1]["bytes"] == 100


def test_comm_graph_rejects_nonsquare():
    with pytest.raises(ValueError):
        comm_graph_from_matrix(np.zeros((2, 3)))


def test_block_placement_levels():
    p = Placement.block(n_ranks=8, ranks_per_node=2, nodes_per_supernode=2)
    assert p.node_of[0] == p.node_of[1] == 0
    assert p.supernode_of(0) == 0
    assert p.supernode_of(4) == 1


def test_traffic_split_classification():
    g = comm_graph_from_matrix(_ring_matrix(8))
    p = Placement.block(8, ranks_per_node=2, nodes_per_supernode=2)
    split = traffic_split(g, p)
    total = sum(split.values())
    assert total == 8 * 100
    # Pairs (0,1),(2,3),(4,5),(6,7) are intra-node: 4 edges.
    assert split["intra_node"] == 400
    # Edge (1,2) stays in supernode 0, (5,6) in supernode 1.
    assert split["intra_supernode"] == 200
    # Edges (3,4) and (7,0) cross supernodes.
    assert split["inter_supernode"] == 200


def test_greedy_mapping_localizes_cliques():
    """Two 4-cliques with a weak bridge: greedy mapping must put each
    clique on its own node, removing all heavy inter-node traffic."""
    p = 8
    mat = np.zeros((p, p), dtype=np.int64)
    for group in (range(0, 4), range(4, 8)):
        for a in group:
            for b in group:
                if a < b:
                    mat[a, b] = 1000
    mat[3, 4] = 1  # weak bridge
    g = comm_graph_from_matrix(mat)

    placement = greedy_locality_mapping(g, n_nodes=2, ranks_per_node=4,
                                        nodes_per_supernode=1)
    split = traffic_split(g, placement)
    assert split["intra_node"] == 12 * 1000
    assert split["inter_supernode"] + split["intra_supernode"] == 1


def test_greedy_mapping_beats_stride_placement():
    """On a 1-D chain, consecutive packing (which greedy recovers) beats a
    round-robin placement."""
    p = 16
    g = comm_graph_from_matrix(_ring_matrix(p, nbytes=10))
    greedy = greedy_locality_mapping(g, n_nodes=4, ranks_per_node=4,
                                     nodes_per_supernode=4)
    stride = Placement(node_of=np.arange(p) % 4, nodes_per_supernode=4)
    g_split = traffic_split(g, greedy)
    s_split = traffic_split(g, stride)
    assert g_split["intra_node"] > s_split["intra_node"]


def test_greedy_mapping_capacity_check():
    g = comm_graph_from_matrix(np.zeros((8, 8), dtype=np.int64))
    with pytest.raises(ValueError):
        greedy_locality_mapping(g, n_nodes=1, ranks_per_node=4)


def test_greedy_mapping_places_every_rank():
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 50, size=(12, 12))
    np.fill_diagonal(mat, 0)
    g = comm_graph_from_matrix(mat)
    placement = greedy_locality_mapping(g, n_nodes=4, ranks_per_node=3)
    assert set(placement.node_of.tolist()) == {0, 1, 2, 3}
    assert np.all(np.bincount(placement.node_of) == 3)


def test_model_import_path_leaves_networkx_out():
    """networkx is imported where a graph is built, so importing the
    coupled model and the atmosphere never loads it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys\n"
        "import repro.esm, repro.atm\n"
        "assert 'networkx' not in sys.modules\n"
        "import repro.parallel\n"
        "repro.parallel.comm_graph_from_matrix([[0, 1], [1, 0]])\n"
        "assert 'networkx' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
