"""Communication-topology analysis and rank remapping.

The paper's §5.2.2 rebuilds the ocean component's communication topology
after removing 3-D non-ocean points ("an MPI rank mapping ensures correct
data access, and a new communication topology optimizes boundary
exchange").  This module provides the graph machinery for that:

* build a weighted communication graph from a traffic matrix or from halo
  exchange lists,
* estimate congestion of a placement on a fat-tree machine (super-node
  locality, oversubscription penalty),
* greedily remap ranks onto nodes/super-nodes to keep heavy edges local —
  the optimization the paper applies when the compressed ocean ranks no
  longer match the original grid layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "comm_graph_from_matrix",
    "Placement",
    "traffic_split",
    "greedy_locality_mapping",
]


def comm_graph_from_matrix(matrix: np.ndarray) -> nx.Graph:
    """Undirected weighted communication graph from a (P, P) byte matrix."""
    import networkx as nx  # here, so a model run that builds no graph never loads it

    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("traffic matrix must be square")
    g = nx.Graph()
    p = matrix.shape[0]
    g.add_nodes_from(range(p))
    sym = matrix + matrix.T
    src, dst = np.nonzero(np.triu(sym, k=1))
    for s, d in zip(src.tolist(), dst.tolist()):
        g.add_edge(s, d, bytes=int(sym[s, d]))
    return g


@dataclass(frozen=True)
class Placement:
    """Assignment of ranks to a node/super-node hierarchy.

    ``node_of[r]`` is the node index of rank r; nodes are grouped into
    super-nodes of ``nodes_per_supernode`` consecutive node indices (the
    OceanLight's 256-node leaf-switch groups).
    """

    node_of: np.ndarray
    nodes_per_supernode: int = 256

    def supernode_of(self, rank: int) -> int:
        return int(self.node_of[rank]) // self.nodes_per_supernode

    @staticmethod
    def block(n_ranks: int, ranks_per_node: int, nodes_per_supernode: int = 256) -> "Placement":
        """Default placement: consecutive ranks share a node."""
        node_of = np.arange(n_ranks) // ranks_per_node
        return Placement(node_of=node_of, nodes_per_supernode=nodes_per_supernode)


def traffic_split(graph: nx.Graph, placement: Placement) -> Dict[str, int]:
    """Split communication volume by locality level.

    Returns bytes crossing each level: ``intra_node`` (free/memory speed),
    ``intra_supernode`` (one leaf switch), and ``inter_supernode`` (the
    16:3-oversubscribed upper fat-tree stages — the expensive part).
    """
    out = {"intra_node": 0, "intra_supernode": 0, "inter_supernode": 0}
    for u, v, data in graph.edges(data=True):
        nbytes = data.get("bytes", 0)
        if placement.node_of[u] == placement.node_of[v]:
            out["intra_node"] += nbytes
        elif placement.supernode_of(u) == placement.supernode_of(v):
            out["intra_supernode"] += nbytes
        else:
            out["inter_supernode"] += nbytes
    return out


def greedy_locality_mapping(
    graph: nx.Graph,
    n_nodes: int,
    ranks_per_node: int,
    nodes_per_supernode: int = 256,
    seed_rank: Optional[int] = None,
) -> Placement:
    """Greedy BFS-style packing of ranks onto nodes to localize heavy edges.

    Starting from the heaviest-degree rank, repeatedly fills each node with
    the unplaced rank that has the largest total edge weight into the ranks
    already placed on that node (falling back to the current super-node,
    then to any rank).  This is the classic greedy graph-mapping heuristic;
    it is what "an MPI rank mapping ensures correct data access" requires
    once compression destroys the original block layout.
    """
    p = graph.number_of_nodes()
    if n_nodes * ranks_per_node < p:
        raise ValueError("not enough node slots for all ranks")
    weight = {
        r: sum(d.get("bytes", 0) for _, _, d in graph.edges(r, data=True))
        for r in graph.nodes
    }
    if seed_rank is None:
        seed_rank = max(weight, key=lambda r: (weight[r], -r))
    unplaced = set(graph.nodes)
    node_of = np.full(p, -1, dtype=np.int64)

    def affinity(rank: int, members: Sequence[int]) -> int:
        return sum(
            graph.edges[rank, m].get("bytes", 0) for m in members if graph.has_edge(rank, m)
        )

    next_seed = seed_rank
    for node in range(n_nodes):
        if not unplaced:
            break
        members: List[int] = []
        first = next_seed if next_seed in unplaced else max(unplaced, key=lambda r: (weight[r], -r))
        members.append(first)
        unplaced.discard(first)
        node_of[first] = node
        while len(members) < ranks_per_node and unplaced:
            best = max(unplaced, key=lambda r: (affinity(r, members), weight[r], -r))
            members.append(best)
            unplaced.discard(best)
            node_of[best] = node
        # Seed the next node with the unplaced rank most attached to this one.
        if unplaced:
            next_seed = max(unplaced, key=lambda r: (affinity(r, members), weight[r], -r))
    if unplaced:
        raise RuntimeError("internal error: ranks left unplaced")
    return Placement(node_of=node_of, nodes_per_supernode=nodes_per_supernode)
