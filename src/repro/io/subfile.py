"""Subfile-partitioned parallel I/O (§5.2.5).

"To address initialization and I/O bottlenecks, a data-partitioning
strategy that divides data into smaller subfiles is implemented.  We
assign groups of MPI ranks to the I/O for a set of subfiles, and leverage
a binary format for the I/O data."

* :class:`SubfileLayout` — assigns ranks to I/O groups; each group owns
  one subfile holding its members' contiguous global slices.
* :func:`write_subfiles` / :func:`read_subfiles` — the binary format
  (magic + dtype + per-rank extents header, raw data after) and global
  reassembly.
* :class:`IOCostModel` — why subfiles win at scale: a single shared file
  serializes through one writer / the metadata server, while ``n_groups``
  subfiles stream concurrently until the filesystem's aggregate bandwidth
  saturates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..obs import NULL_OBS
from ..parallel.decomp import block_ranges

__all__ = ["SubfileLayout", "write_subfiles", "read_subfiles", "IOCostModel"]

MAGIC = b"AP3E"
VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, n_ranks_in_file, dtype code
_EXTENT = struct.Struct("<QQ")     # (global_start, length) per rank

_DTYPES = {0: np.float64, 1: np.float32, 2: np.int64, 3: np.int32}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


@dataclass(frozen=True)
class SubfileLayout:
    """Assignment of ``n_ranks`` to ``n_groups`` I/O groups."""

    n_ranks: int
    n_groups: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_groups <= self.n_ranks:
            raise ValueError("need 1 <= n_groups <= n_ranks")

    def group_of(self, rank: int) -> int:
        if not 0 <= rank < self.n_ranks:
            raise ValueError("rank out of range")
        for g, (s, e) in enumerate(block_ranges(self.n_ranks, self.n_groups)):
            if s <= rank < e:
                return g
        raise AssertionError("unreachable")

    def ranks_of(self, group: int) -> List[int]:
        s, e = block_ranges(self.n_ranks, self.n_groups)[group]
        return list(range(s, e))

    def subfile_name(self, base: str, group: int) -> str:
        return f"{base}.{group:05d}.bin"


def write_subfiles(
    directory: Union[str, Path],
    base: str,
    layout: SubfileLayout,
    rank_slices: Sequence[Tuple[int, np.ndarray]],
    obs=NULL_OBS,
) -> List[Path]:
    """Write per-rank (global_start, values) slices into group subfiles.

    ``rank_slices[r]`` is rank r's contribution: the global offset of its
    contiguous slice and the values.  Returns the subfile paths.  A live
    ``obs`` handle records a span plus bytes/files-written counters.
    """
    if len(rank_slices) != layout.n_ranks:
        raise ValueError("need one slice per rank")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dtype = np.asarray(rank_slices[0][1]).dtype
    if dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {dtype}")
    if not obs.enabled:
        return _write_subfiles(directory, base, layout, rank_slices, dtype)
    with obs.span("io.write_subfiles", base=base, n_groups=layout.n_groups):
        paths = _write_subfiles(directory, base, layout, rank_slices, dtype)
    nbytes = sum(p.stat().st_size for p in paths)
    obs.counter("io.subfiles_written").inc(len(paths))
    obs.counter("io.bytes_written").inc(nbytes)
    obs.histogram("io.subfile_write_bytes").observe(nbytes / max(len(paths), 1))
    return paths


def _write_subfiles(
    directory: Path,
    base: str,
    layout: SubfileLayout,
    rank_slices: Sequence[Tuple[int, np.ndarray]],
    dtype: np.dtype,
) -> List[Path]:
    paths: List[Path] = []
    for g in range(layout.n_groups):
        members = layout.ranks_of(g)
        path = directory / layout.subfile_name(base, g)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, len(members), _DTYPE_CODES[dtype]))
            for r in members:
                start, values = rank_slices[r]
                values = np.ascontiguousarray(values, dtype=dtype)
                fh.write(_EXTENT.pack(int(start), values.size))
            for r in members:
                _, values = rank_slices[r]
                fh.write(np.ascontiguousarray(values, dtype=dtype).tobytes())
        paths.append(path)
    return paths


def read_subfiles(
    directory: Union[str, Path],
    base: str,
    layout: SubfileLayout,
    global_size: int,
    obs=NULL_OBS,
) -> np.ndarray:
    """Reassemble the global array from a subfile set."""
    if obs.enabled:
        with obs.span("io.read_subfiles", base=base, n_groups=layout.n_groups):
            out = read_subfiles(directory, base, layout, global_size)
        obs.counter("io.subfiles_read").inc(layout.n_groups)
        obs.counter("io.bytes_read").inc(out.nbytes)
        return out
    directory = Path(directory)
    out = None
    covered = 0
    for g in range(layout.n_groups):
        path = directory / layout.subfile_name(base, g)
        with open(path, "rb") as fh:
            magic, version, n_in_file, dtype_code = _HEADER.unpack(
                fh.read(_HEADER.size)
            )
            if magic != MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            dtype = np.dtype(_DTYPES[dtype_code])
            extents = [_EXTENT.unpack(fh.read(_EXTENT.size)) for _ in range(n_in_file)]
            if out is None:
                out = np.zeros(global_size, dtype=dtype)
            for start, length in extents:
                if start + length > global_size:
                    raise ValueError(f"{path}: extent beyond global size")
                data = np.frombuffer(fh.read(length * dtype.itemsize), dtype=dtype)
                out[start : start + length] = data
                covered += length
    if out is None:
        raise FileNotFoundError("no subfiles read")
    if covered != global_size:
        raise ValueError(f"subfiles cover {covered} of {global_size} entries")
    return out


@dataclass(frozen=True)
class IOCostModel:
    """Analytic I/O timing: shared-file vs subfile strategies.

    Parameters are per the machine description: each node can stream
    ``node_bw`` to the filesystem, which saturates at ``fs_bw`` aggregate;
    every file touched costs ``metadata_s`` on the metadata server, and a
    *shared* file adds ``lock_s`` per writer for stripe-lock contention.
    """

    node_bw: float = 2.0e9        # bytes/s per I/O node
    fs_bw: float = 4.0e11         # bytes/s aggregate filesystem
    metadata_s: float = 5.0e-3    # per file create/open
    lock_s: float = 2.0e-4        # per writer on a shared file

    def shared_file_time(self, total_bytes: float, n_writers: int) -> float:
        if total_bytes < 0 or n_writers < 1:
            raise ValueError("bad arguments")
        bw = min(self.fs_bw, self.node_bw * min(n_writers, 8))  # stripe limit
        return self.metadata_s + n_writers * self.lock_s + total_bytes / bw

    def subfile_time(self, total_bytes: float, n_groups: int) -> float:
        # Each subfile pays its own create/open on the metadata server:
        # the penalty grows linearly with n_groups, so past bandwidth
        # saturation extra groups *cost* time and best_group_count has a
        # real optimum instead of always driving to max bandwidth.
        if total_bytes < 0 or n_groups < 1:
            raise ValueError("bad arguments")
        bw = min(self.fs_bw, self.node_bw * n_groups)
        return n_groups * self.metadata_s + total_bytes / bw

    def best_group_count(self, total_bytes: float, n_ranks: int) -> int:
        """Group count minimizing modeled subfile time (sweep powers of 2)."""
        best, best_t = 1, float("inf")
        g = 1
        while g <= n_ranks:
            t = self.subfile_time(total_bytes, g)
            if t < best_t:
                best, best_t = g, t
            g *= 2
        return best
