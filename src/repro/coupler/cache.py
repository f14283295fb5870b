"""CouplerCache: content-addressed offline GSMap/Router construction.

§5.2.4: "the two data structures are generated **offline** as a
preprocessing step".  The cache makes that offline step automatic and
safe: every entry is keyed by a SHA-256 over the *content* that
determines the table — the grid ids and the full owner arrays of the
decompositions involved — so a repeated ``run-coupled`` invocation
re-loads the precomputed Router instead of paying :meth:`Router.build`,
while any change to the decomposition (different layout, different grid,
or an elastic shrink after a rank failure) changes the key and
transparently misses to a fresh build.  A stale table can never be
served: the key *is* the owner arrays.

Entries are plain ``.npz`` files written via the existing
:meth:`GlobalSegMap.to_file`/:meth:`Router.to_file` persistence, plus a
JSON sidecar recording the build wall-time so warm hits can report
``coupler.cache.build_time_saved``.  An entry is published temp-file →
``os.replace``, so a reader never sees a half-written table; an entry
that is unreadable anyway (truncated by a crash of an older writer, a
full disk) is a miss: it is rebuilt and overwritten.
"""

from __future__ import annotations

import hashlib
import json
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..io.restart import publish_atomic, write_atomic_text
from ..obs import NULL_OBS, Obs
from .gsmap import GlobalSegMap
from .router import Router

__all__ = ["CouplerCache"]


#: What ``np.load`` raises on a truncated or otherwise damaged ``.npz``.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error)


def _content_key(kind: str, *parts) -> str:
    """SHA-256 over grid ids and owner arrays; ndarray parts hash their
    raw bytes (dtype-normalised), strings hash utf-8."""
    h = hashlib.sha256()
    h.update(kind.encode())
    for part in parts:
        h.update(b"\x00")
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            h.update(str(part).encode())
    return h.hexdigest()[:24]


@dataclass
class CouplerCache:
    """Directory of content-addressed GSMap/Router artifacts.

    ``get_router`` / ``get_gsmap`` either load a prior build (hit) or
    build-and-persist (miss).  Stats accumulate on the instance and, when
    an ``obs`` handle is attached, as ``coupler.cache.{hits,misses}``
    counters and the ``coupler.cache.build_time_saved`` gauge (seconds of
    construction skipped by warm hits).
    """

    root: Union[str, Path]
    obs: Obs = NULL_OBS
    hits: int = 0
    misses: int = 0
    build_time_saved_s: float = 0.0

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def router_key(
        src_grid: str, dst_grid: str,
        src_owners: np.ndarray, dst_owners: np.ndarray,
    ) -> str:
        """Content address of a Router: both grid ids + both owner arrays.
        An elastic shrink rewrites the owner arrays, so the repaired
        decomposition can never resolve to the pre-failure table."""
        return _content_key("router", src_grid, dst_grid, src_owners, dst_owners)

    @staticmethod
    def gsmap_key(grid: str, owners: np.ndarray) -> str:
        return _content_key("gsmap", grid, owners)

    # -- lookup-or-build -----------------------------------------------------

    def get_router(
        self,
        src_grid: str,
        dst_grid: str,
        src: GlobalSegMap,
        dst: GlobalSegMap,
    ) -> Router:
        """The cached equivalent of ``Router.build(src, dst)``."""
        key = self.router_key(
            src_grid, dst_grid, src.owner_array(), dst.owner_array()
        )
        return self._get(
            key, self.root / f"router-{key}.npz", Router.from_file,
            lambda: Router.build(src, dst),
        )

    def get_gsmap(self, grid: str, owners: np.ndarray) -> GlobalSegMap:
        """The cached equivalent of ``GlobalSegMap.from_owners(owners)``."""
        key = self.gsmap_key(grid, owners)
        return self._get(
            key, self.root / f"gsmap-{key}.npz", GlobalSegMap.from_file,
            lambda: GlobalSegMap.from_owners(owners),
        )

    def _get(self, key: str, path: Path, loader, build):
        if path.exists():
            try:
                return self._hit(path, loader)
            except _UNREADABLE:
                pass  # torn entry: rebuild over it
        t0 = time.perf_counter()
        table = build()
        self._miss(key, path, table.to_file, time.perf_counter() - t0)
        return table

    # -- bookkeeping ---------------------------------------------------------

    def _hit(self, path: Path, loader):
        table = loader(path)
        self.hits += 1
        saved = self._recorded_build_time(path)
        self.build_time_saved_s += saved
        self.obs.counter("coupler.cache.hits").inc()
        self.obs.gauge("coupler.cache.build_time_saved").set(self.build_time_saved_s)
        return table

    def _miss(self, key: str, path: Path, saver, build_s: float) -> None:
        self.misses += 1
        publish_atomic(path, saver)
        write_atomic_text(
            path.with_suffix(".json"), json.dumps({"key": key, "build_s": build_s})
        )
        self.obs.counter("coupler.cache.misses").inc()

    def _recorded_build_time(self, path: Path) -> float:
        sidecar = path.with_suffix(".json")
        if sidecar.exists():
            try:
                return float(json.loads(sidecar.read_text()).get("build_s", 0.0))
            except (json.JSONDecodeError, TypeError, ValueError):
                return 0.0
        return 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "build_time_saved_s": self.build_time_saved_s,
            "entries": float(len(list(self.root.glob("*.npz")))),
        }
