"""Model restart files on the subfile format.

The paper's §5.2.5 strategy exists to make initialization and restart I/O
scale; this module provides the model-facing layer: a restart is a JSON
manifest (field names, shapes, dtypes, scalars) plus one subfile set per
field, written/read through :mod:`repro.io.subfile`.  Bit-exact
round-trips are tested, as is the restart contract itself: *run N+M steps*
equals *run N, save, load, run M* bit for bit (for the ocean component).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
import zlib
from pathlib import Path
from typing import IO, Callable, Dict, Tuple, Union

import numpy as np

try:  # POSIX; the lock degrades to a no-op where flock is unavailable
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..parallel.decomp import block_ranges
from .subfile import SubfileLayout, read_subfiles, write_subfiles

__all__ = [
    "save_restart", "load_restart", "RestartError", "publish_atomic",
    "write_atomic_text", "publish_dir", "lock_exclusive",
]

MANIFEST = "restart.json"


class RestartError(ValueError):
    """A restart set failed validation.

    Structured: carries the manifest path, the offending field (when
    any), and the expected/actual values of whatever mismatched, so a
    corrupt or truncated restart is diagnosable without reading hexdumps.
    """

    def __init__(
        self,
        message: str,
        *,
        manifest: Union[str, Path, None] = None,
        field: str | None = None,
        expected: object = None,
        actual: object = None,
    ) -> None:
        detail = message
        if field is not None:
            detail += f" [field={field}]"
        if expected is not None or actual is not None:
            detail += f" [expected={expected!r}, actual={actual!r}]"
        if manifest is not None:
            detail += f" [manifest={manifest}]"
        super().__init__(detail)
        self.manifest = None if manifest is None else str(manifest)
        self.field = field
        self.expected = expected
        self.actual = actual


def publish_atomic(path: Union[str, Path], write: Callable[[Path], object]) -> Path:
    """Publish ``path`` by ``write(tmp)`` into a temp file + ``os.replace``:
    a crash mid-write leaves either the old file or none, never a
    half-parsing one.  Each call stages under its own name in the target
    directory (created if missing), so concurrent publishers of one path
    never rename each other's temp file (the last replace wins); the name
    keeps ``path``'s suffix because numpy appends ``.npz`` to any other.
    The temp file is removed when ``write`` or the replace fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.stem}.{uuid.uuid4().hex}{path.suffix}")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_atomic_text(path: Union[str, Path], text: str) -> Path:
    """Publish ``text`` at ``path`` through :func:`publish_atomic`."""
    return publish_atomic(path, lambda tmp: tmp.write_text(text))


def publish_dir(path: Union[str, Path], write: Callable[[Path], object]) -> Path:
    """Publish directory ``path`` by ``write(staging)`` into the empty
    staging directory ``.tmp-<name>`` beside it, then one ``os.rename``:
    readers see the previous directory or the whole new one, never a
    half-written one.  A staging directory left by a crashed writer is
    removed first, an existing ``path`` is replaced once the write has
    succeeded, and the staging directory is removed when ``write`` raises.
    Writers of one ``path`` must serialise (:func:`lock_exclusive`)."""
    path = Path(path)
    staging = path.with_name(f".tmp-{path.name}")
    if staging.exists():
        shutil.rmtree(staging)
    try:
        staging.mkdir(parents=True)
        write(staging)
        if path.exists():
            shutil.rmtree(path)
        os.rename(staging, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return path


def lock_exclusive(path: Union[str, Path], blocking: bool = True) -> IO:
    """An exclusive ``flock`` on lock file ``path`` (created if missing),
    held until the returned file is closed (``with lock_exclusive(p):``).
    Non-blocking, a lock another process holds raises ``OSError``.  The
    kernel releases the lock with the fd, so a SIGKILL'd holder never
    wedges the next one."""
    f = open(path, "a")
    if fcntl is not None:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB))
        except BaseException:
            f.close()
            raise
    return f


def _subfile_crcs(directory: Path, base: str, layout: SubfileLayout) -> Dict[str, int]:
    """crc32 of each subfile in a field's group set, keyed by file name."""
    crcs: Dict[str, int] = {}
    for g in range(layout.n_groups):
        name = layout.subfile_name(base, g)
        crcs[name] = zlib.crc32((directory / name).read_bytes())
    return crcs


def save_restart(
    directory: Union[str, Path],
    fields: Dict[str, np.ndarray],
    scalars: Dict[str, float] | None = None,
    n_ranks: int = 8,
    n_groups: int = 4,
) -> Path:
    """Write a restart set: one subfile group set per field + manifest.

    ``fields`` values may have any shape (flattened for I/O; shapes are
    recorded in the manifest).  Returns the manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layout = SubfileLayout(n_ranks, n_groups)
    manifest: Dict[str, object] = {
        "version": 1,
        "n_ranks": n_ranks,
        "n_groups": n_groups,
        "scalars": dict(scalars or {}),
        "fields": {},
    }
    for name, arr in fields.items():
        arr = np.asarray(arr)
        flat = np.ascontiguousarray(arr).ravel()
        slices = [(s, flat[s:e]) for s, e in block_ranges(flat.size, n_ranks)]
        write_subfiles(directory, name, layout, slices)
        manifest["fields"][name] = {
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "size": int(flat.size),
            "crc32": _subfile_crcs(directory, name, layout),
        }
    # The manifest is written last AND atomically: readers either see the
    # previous complete restart.json or the new complete one, never a
    # torn write that half-parses.
    return write_atomic_text(
        directory / MANIFEST, json.dumps(manifest, indent=2, sort_keys=True)
    )


def _is_count(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _validate_manifest(manifest: object, path: Path) -> Dict[str, object]:
    """Structural validation of a parsed manifest, before any data I/O.

    Raises :class:`RestartError` naming exactly what is malformed; returns
    the manifest dict on success.
    """
    if not isinstance(manifest, dict):
        raise RestartError("manifest is not a JSON object", manifest=path)
    version = manifest.get("version")
    if version != 1:
        raise RestartError(
            "unsupported restart version",
            manifest=path, expected=1, actual=version,
        )
    for key in ("n_ranks", "n_groups", "fields", "scalars"):
        if key not in manifest:
            raise RestartError(f"manifest missing {key!r} key", manifest=path)
    for key in ("fields", "scalars"):
        if not isinstance(manifest[key], dict):
            raise RestartError(f"manifest {key!r} is not an object", manifest=path)
    n_ranks, n_groups = manifest["n_ranks"], manifest["n_groups"]
    if not (_is_count(n_ranks) and _is_count(n_groups) and 1 <= n_groups <= n_ranks):
        raise RestartError("manifest needs integers 1 <= n_groups <= n_ranks",
                           manifest=path, actual=[n_ranks, n_groups])
    for name, meta in manifest["fields"].items():
        if not isinstance(meta, dict):
            raise RestartError("field entry is not an object",
                               manifest=path, field=name)
        for key in ("shape", "dtype", "size"):
            if key not in meta:
                raise RestartError(f"field entry missing {key!r}",
                                   manifest=path, field=name)
        try:
            np.dtype(meta["dtype"])
        except TypeError as exc:
            raise RestartError(f"bad field dtype: {exc}",
                               manifest=path, field=name,
                               actual=meta["dtype"]) from None
        shape, size, crcs = meta["shape"], meta["size"], meta.get("crc32")
        for key, ok in (
            ("shape", isinstance(shape, list) and all(map(_is_count, shape))),
            ("size", _is_count(size)),
            ("crc32", crcs is None or isinstance(crcs, dict) and all(map(_is_count, crcs.values()))),
        ):
            if not ok:
                raise RestartError(f"field entry {key!r} has the wrong type",
                                   manifest=path, field=name, actual=meta[key])
        declared = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if declared != size:
            raise RestartError(
                "field size inconsistent with shape",
                manifest=path, field=name, expected=declared, actual=size,
            )
    return manifest


def load_restart(
    directory: Union[str, Path],
) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
    """Read a restart set; returns (fields, scalars).

    The manifest is validated up front and every subfile is CRC-checked
    against it (when the manifest carries checksums — older sets without
    them still load); any missing, truncated, or size-mismatched piece
    raises a structured :class:`RestartError` instead of a bare
    ``KeyError``/``ValueError`` from deep inside the reader.
    """
    directory = Path(directory)
    path = directory / MANIFEST
    try:
        text = path.read_text()
    except OSError as exc:
        raise RestartError(f"cannot read restart manifest: {exc}",
                           manifest=path) from None
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RestartError(f"restart manifest is not valid JSON: {exc}",
                           manifest=path) from None
    manifest = _validate_manifest(manifest, path)
    layout = SubfileLayout(int(manifest["n_ranks"]), int(manifest["n_groups"]))
    fields: Dict[str, np.ndarray] = {}
    for name, meta in manifest["fields"].items():
        for fname, crc in (meta.get("crc32") or {}).items():
            fpath = directory / fname
            try:
                actual = zlib.crc32(fpath.read_bytes())
            except OSError as exc:
                raise RestartError(f"cannot read subfile {fname}: {exc}",
                                   manifest=path, field=name) from None
            if actual != int(crc):
                raise RestartError(
                    f"subfile {fname} fails its CRC (corrupt payload)",
                    manifest=path, field=name,
                    expected=int(crc), actual=actual,
                )
        try:
            flat = read_subfiles(directory, name, layout, int(meta["size"]))
        except (OSError, ValueError) as exc:
            raise RestartError(
                f"cannot reassemble field from subfiles: {exc}",
                manifest=path, field=name, expected=int(meta["size"]),
            ) from None
        fields[name] = flat.astype(meta["dtype"], copy=False).reshape(meta["shape"])
    return fields, dict(manifest["scalars"])
