"""Router: MCT's M-to-N transfer table between two GSMaps.

"Given two decompositions specified in two GSMaps, the Router table can
easily build a mapping between the location of one grid point on a
processor and its location on another processor" (§5.2.4).  Construction
intersects every source rank's index set with every destination rank's —
the O(M x N)-ish work and memory that motivated the paper's **offline**
precomputation, which :meth:`Router.to_file`/:meth:`Router.from_file`
provide (and :class:`repro.coupler.cache.CouplerCache` automates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .gsmap import GlobalSegMap

__all__ = ["Router"]


@dataclass
class Router:
    """Per (src_pe, dst_pe) transfer lists in *local* index coordinates.

    ``send[(p, q)]`` holds the local positions (into rank p's ascending
    owned-index order) of the values p must send to q; ``recv[(p, q)]``
    the local positions on q where they land, in matching order.
    """

    src_gsize: int
    dst_gsize: int
    send: Dict[Tuple[int, int], np.ndarray]
    recv: Dict[Tuple[int, int], np.ndarray]

    # -- construction --------------------------------------------------------------

    @staticmethod
    def build(src: GlobalSegMap, dst: GlobalSegMap) -> "Router":
        """Intersect the two decompositions (identity grid mapping: the
        same global index space on both sides, as MCT requires — grid
        interpolation is a separate sparse-matrix step)."""
        if src.gsize != dst.gsize:
            raise ValueError(
                "Router requires both GSMaps over the same global space "
                f"(got {src.gsize} vs {dst.gsize})"
            )
        send: Dict[Tuple[int, int], np.ndarray] = {}
        recv: Dict[Tuple[int, int], np.ndarray] = {}
        src_owner = src.owner_array()
        dst_owner = dst.owner_array()
        # Local position of each global index on its owner.
        src_pos = _local_positions(src)
        dst_pos = _local_positions(dst)
        both = (src_owner >= 0) & (dst_owner >= 0)
        pairs = np.stack([src_owner[both], dst_owner[both]], axis=1)
        gidx = np.flatnonzero(both)
        # Group by (src_pe, dst_pe).
        order = np.lexsort((gidx, pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
        gidx = gidx[order]
        if len(gidx):
            boundaries = np.flatnonzero(np.any(np.diff(pairs, axis=0) != 0, axis=1)) + 1
            starts = np.concatenate([[0], boundaries])
            ends = np.concatenate([boundaries, [len(gidx)]])
            for s, e in zip(starts, ends):
                p, q = int(pairs[s, 0]), int(pairs[s, 1])
                g = gidx[s:e]
                send[(p, q)] = src_pos[g]
                recv[(p, q)] = dst_pos[g]
        return Router(src.gsize, dst.gsize, send, recv)

    # -- queries ------------------------------------------------------------------------

    @property
    def n_pairs(self) -> int:
        return len(self.send)

    def total_points(self) -> int:
        return int(sum(len(v) for v in self.send.values()))

    def partner_counts(self, n_ranks: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-rank message postings of one transfer: ``(sends, recvs)``,
        one send per non-self destination, one receive per non-self source."""
        sends, recvs = np.zeros(n_ranks), np.zeros(n_ranks)
        for (p, q) in self.send:
            if p != q:
                sends[p] += 1
        for (p, q) in self.recv:
            if p != q:
                recvs[q] += 1
        return sends, recvs

    def memory_bytes(self) -> int:
        return int(
            sum(v.nbytes for v in self.send.values())
            + sum(v.nbytes for v in self.recv.values())
        )

    # -- application ---------------------------------------------------------------------

    def redistribute(
        self,
        src_shards: Dict[int, np.ndarray],
        dst_sizes: Dict[int, int],
    ) -> Dict[int, np.ndarray]:
        """Apply the transfer table driver-side: move values from per-rank
        source shards (each in the owner's ascending local order) into
        per-rank destination shards.

        This is the data-movement step of elastic re-decomposition: the
        Router built between the old and the repaired GSMap *is* the
        migration plan for survivor-held state.  Positions not covered by
        any transfer pair (holes on the source side) are left NaN so a
        partial redistribute is detectable.
        """
        out: Dict[int, np.ndarray] = {
            q: np.full(n, np.nan, dtype=np.float64) for q, n in dst_sizes.items()
        }
        for (p, q), spos in self.send.items():
            shard = src_shards[p]
            out[q][self.recv[(p, q)]] = np.asarray(shard, dtype=np.float64)[spos]
        return out

    # -- offline precompute ----------------------------------------------------------------

    def to_file(self, path: Union[str, Path]) -> None:
        payload: Dict[str, np.ndarray] = {
            "meta": np.array([self.src_gsize, self.dst_gsize], dtype=np.int64)
        }
        for (p, q), idx in self.send.items():
            payload[f"s_{p}_{q}"] = idx
        for (p, q), idx in self.recv.items():
            payload[f"r_{p}_{q}"] = idx
        np.savez_compressed(path, **payload)

    @staticmethod
    def from_file(path: Union[str, Path]) -> "Router":
        send: Dict[Tuple[int, int], np.ndarray] = {}
        recv: Dict[Tuple[int, int], np.ndarray] = {}
        with np.load(path) as data:
            meta = data["meta"]
            for key in data.files:
                if key == "meta":
                    continue
                kind, p, q = key.split("_")
                target = send if kind == "s" else recv
                target[(int(p), int(q))] = data[key]
        return Router(int(meta[0]), int(meta[1]), send, recv)


def _local_positions(gsmap: GlobalSegMap) -> np.ndarray:
    """For every global index, its position in the owner's ascending local
    order (-1 in holes)."""
    owner = gsmap.owner_array()
    pos = np.full(gsmap.gsize, -1, dtype=np.int64)
    for pe in range(gsmap.n_pes):
        mine = np.flatnonzero(owner == pe)
        pos[mine] = np.arange(len(mine))
    return pos
