"""GlobalSegMap (GSMap): MCT's distributed-decomposition descriptor.

A GSMap describes which MPI rank owns which global grid indices, as a list
of (start, length, pe) segments.  §5.2.4 of the paper: "the memory in a CG
of Sunway cannot satisfy the requirements for MCT to construct the GSMap
... the two data structures are generated **offline** as a preprocessing
step" — reproduced here by :meth:`GlobalSegMap.to_file` /
:meth:`GlobalSegMap.from_file` (binary .npz) plus a :func:`build cost
model <GlobalSegMap.build_cost>` exposing why online construction hurts.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

__all__ = ["GlobalSegMap"]


@dataclass
class GlobalSegMap:
    """Segments (start, length, pe) covering a global index space."""

    gsize: int
    starts: np.ndarray
    lengths: np.ndarray
    pes: np.ndarray

    def __post_init__(self) -> None:
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        self.pes = np.asarray(self.pes, dtype=np.int64)
        if not (len(self.starts) == len(self.lengths) == len(self.pes)):
            raise ValueError("segment arrays must have equal length")
        if np.any(self.lengths <= 0):
            raise ValueError("segment lengths must be positive")
        ends = self.starts + self.lengths
        if len(self.starts) and (self.starts.min() < 0 or ends.max() > self.gsize):
            raise ValueError("segments out of range")
        order = np.argsort(self.starts)
        s, e = self.starts[order], ends[order]
        if np.any(s[1:] < e[:-1]):
            raise ValueError("segments overlap")

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_owners(owners: np.ndarray) -> "GlobalSegMap":
        """Build from a dense owner array (run-length encode it)."""
        owners = np.asarray(owners, dtype=np.int64).ravel()
        if owners.size == 0:
            raise ValueError("empty owner array")
        change = np.flatnonzero(np.diff(owners)) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [owners.size]])
        keep = owners[starts] >= 0  # negative owner = hole (e.g. dry column)
        return GlobalSegMap(
            gsize=owners.size,
            starts=starts[keep],
            lengths=(ends - starts)[keep],
            pes=owners[starts][keep],
        )

    # -- queries -------------------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.starts)

    @property
    def n_pes(self) -> int:
        return int(self.pes.max()) + 1 if len(self.pes) else 0

    @property
    def covered(self) -> int:
        return int(self.lengths.sum())

    def owner(self, gindex: int) -> int:
        """Rank owning a global index (-1 if in a hole)."""
        if not 0 <= gindex < self.gsize:
            raise IndexError(gindex)
        pos = np.searchsorted(self.starts, gindex, side="right") - 1
        if pos < 0:
            return -1
        if gindex < self.starts[pos] + self.lengths[pos]:
            return int(self.pes[pos])
        return -1

    def local_indices(self, pe: int) -> np.ndarray:
        """Global indices owned by ``pe``, ascending (the MCT local order)."""
        segs = np.flatnonzero(self.pes == pe)
        if len(segs) == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.arange(self.starts[s], self.starts[s] + self.lengths[s]) for s in segs]
        )

    def owner_array(self) -> np.ndarray:
        """Dense owner-per-index array (-1 in holes)."""
        out = np.full(self.gsize, -1, dtype=np.int64)
        for s, l, p in zip(self.starts, self.lengths, self.pes):
            out[s : s + l] = p
        return out

    # -- elastic repair ------------------------------------------------------------

    def shrink(self, dead: "List[int]") -> Tuple["GlobalSegMap", Dict[int, int]]:
        """Repaired GSMap after the dead ranks' indices are re-partitioned
        across survivors (nearest surviving owner along index order) and
        survivors densely renumbered — the coupler-side mirror of
        :meth:`repro.parallel.SimWorld.shrink`.

        Returns ``(new_gsmap, old_to_new)``.
        """
        from ..parallel.decomp import shrink_owners

        owners = self.owner_array()
        live = owners >= 0
        # Compact over live cells so holes neither adopt nor get adopted;
        # nearest-in-index-order over the compacted array is nearest live.
        new_compact, old_to_new = shrink_owners(owners[live], dead, n_ranks=self.n_pes)
        new_owners = np.full_like(owners, -1)
        new_owners[live] = new_compact
        return GlobalSegMap.from_owners(new_owners), old_to_new

    # -- offline precompute (§5.2.4) -----------------------------------------------

    def to_file(self, path: Union[str, Path]) -> None:
        np.savez_compressed(
            path, gsize=self.gsize, starts=self.starts,
            lengths=self.lengths, pes=self.pes,
        )

    @staticmethod
    def from_file(path: Union[str, Path]) -> "GlobalSegMap":
        with np.load(path) as data:
            return GlobalSegMap(
                gsize=int(data["gsize"]),
                starts=data["starts"],
                lengths=data["lengths"],
                pes=data["pes"],
            )

    def memory_bytes(self) -> int:
        """Resident size of the segment table (what a CG must hold)."""
        return int(self.starts.nbytes + self.lengths.nbytes + self.pes.nbytes)

    def build_cost(self) -> Dict[str, float]:
        """Why online construction is expensive: MCT gathers every rank's
        segment list to build the global table — O(segments) memory on
        *every* rank and an allgather of the whole table."""
        table = self.memory_bytes()
        return {
            "table_bytes_per_rank": float(table),
            "allgather_bytes": float(table * max(self.n_pes, 1)),
            "n_segments": float(self.n_segments),
        }
