"""Rotating, checksummed, atomically-written checkpoints.

The discipline the 40M-core coupled runs report as first-order
engineering (Duan et al.): a checkpoint that cannot half-exist, a
manifest that can prove every byte, and a rotation that always holds a
fallback.

* **Atomic**: a checkpoint is published by :func:`~repro.io.restart.publish_dir`
  only after its manifest (itself written by ``write_atomic_text``) covers
  every file — a crash at any instant leaves either the previous complete
  set or an ignorable ``.tmp-`` staging directory.
* **Checksummed**: the manifest records size + crc32 of every file in the
  set (including the per-component ``restart.json`` manifests, which are
  themselves CRC'd per subfile — two independent layers).
* **Rotating**: the newest ``keep`` checkpoints survive; restore walks
  newest → oldest, skipping invalid sets and counting each skip as a
  ``resilience.checkpoint_fallbacks`` intervention (:meth:`valid_steps`
  lists every set that validates, for a fleet choosing a common step).
* **Exclusive**: publish, prune and drop hold
  :func:`~repro.io.restart.lock_exclusive` on a ``.lock`` file in the
  root, so two writers sharing one rotation (two service jobs, or a worker
  racing the reaper that requeued it) cannot interleave renames and
  ``rmtree`` and shred each other's sets.
"""

from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..io.restart import RestartError, lock_exclusive, publish_dir, write_atomic_text
from ..obs import NULL_OBS
from .errors import CheckpointError

__all__ = ["CheckpointManager"]

_MANIFEST = "checkpoint.json"
_PREFIX = "ckpt-"
_LOCKFILE = ".lock"
_VERSION = 1


class CheckpointManager:
    """Owns one rotating checkpoint directory.

    ``to_file``/``restore_latest_valid`` take callables (e.g.
    ``model.save_restart`` / ``model.load_restart``) so the manager works
    for any component or the whole coupled system without importing them.
    """

    def __init__(self, root: Union[str, Path], keep: int = 3, obs=None) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.keep = keep
        self.obs = obs if obs is not None else NULL_OBS
        self.root.mkdir(parents=True, exist_ok=True)

    # -- write -------------------------------------------------------------

    def to_file(self, saver: Callable[[Path], None], step: int) -> Path:
        """Write checkpoint ``step`` atomically and prune the rotation.

        ``saver(directory)`` must materialize the state under the given
        (staging) directory; the manager then manifests and publishes it.
        """
        def write(staging: Path) -> None:
            saver(staging)
            files: Dict[str, Dict[str, int]] = {}
            for f in sorted(p for p in staging.rglob("*") if p.is_file()):
                rel = f.relative_to(staging).as_posix()
                data = f.read_bytes()
                files[rel] = {"size": len(data), "crc32": zlib.crc32(data)}
            manifest = {"version": _VERSION, "step": int(step), "files": files}
            write_atomic_text(
                staging / _MANIFEST, json.dumps(manifest, indent=2, sort_keys=True)
            )

        with self.obs.span("resilience.checkpoint", step=step), lock_exclusive(self.root / _LOCKFILE):
            path = publish_dir(self.root / f"{_PREFIX}{step:08d}", write)
            # Sets past ``keep`` and a crashed writer's staging directories go.
            for old in self.checkpoints()[: -self.keep] + list(self.root.glob(f".tmp-{_PREFIX}*")):
                shutil.rmtree(old, ignore_errors=True)
        self.obs.counter("resilience.checkpoints_written").inc()
        return path

    def drop_newer_than(self, step: int) -> None:
        """Delete every published checkpoint newer than ``step`` (under
        the rotation lock): after a rollback past them they belong to an
        abandoned timeline, and no later restore may land on one."""
        with lock_exclusive(self.root / _LOCKFILE):
            for ckpt in self.checkpoints():
                if self.step_of(ckpt) > step:
                    shutil.rmtree(ckpt)

    # -- read --------------------------------------------------------------

    def checkpoints(self) -> List[Path]:
        """Published checkpoints, oldest → newest."""
        return sorted(self.root.glob(f"{_PREFIX}*"))

    def latest(self) -> Optional[Path]:
        """Newest *published* checkpoint (no validation; use
        :meth:`latest_valid` to also prove the bytes), or None when the
        rotation is empty — the cheap "is there anything to resume
        from?" probe services ask before building a model."""
        ckpts = self.checkpoints()
        return ckpts[-1] if ckpts else None

    def step_of(self, path: Union[str, Path]) -> int:
        return int(Path(path).name[len(_PREFIX):])

    def validate(self, path: Union[str, Path]) -> None:
        """Raise :class:`CheckpointError` unless every manifested file
        exists with the recorded size and CRC (and nothing is missing
        from the manifest)."""
        path = Path(path)
        manifest_path = path / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError:
            raise CheckpointError("checkpoint has no manifest",
                                  path=path, reason="missing manifest") from None
        except json.JSONDecodeError as exc:
            raise CheckpointError("checkpoint manifest is not valid JSON",
                                  path=path, reason=str(exc)) from None
        # Input read from disk: a malformed manifest is a set to skip.
        if not isinstance(manifest, dict):
            raise CheckpointError("checkpoint manifest is malformed",
                                  path=path, reason="not a JSON object")
        if manifest.get("version") != _VERSION:
            raise CheckpointError(
                "checkpoint manifest has unsupported version",
                path=path, reason=f"version={manifest.get('version')!r}",
            )
        files = manifest.get("files", {})
        if not isinstance(files, dict) or not all(
            isinstance(meta, dict) and "size" in meta and "crc32" in meta
            for meta in files.values()
        ):
            raise CheckpointError("checkpoint manifest is malformed",
                                  path=path, reason="files entries need size and crc32")
        for rel, meta in files.items():
            f = path / rel
            try:
                data = f.read_bytes()
            except OSError:
                raise CheckpointError("checkpoint file missing",
                                      path=path, reason=rel) from None
            if len(data) != meta["size"]:
                raise CheckpointError(
                    "checkpoint file truncated",
                    path=path,
                    reason=f"{rel}: {len(data)} of {meta['size']} bytes",
                )
            if zlib.crc32(data) != meta["crc32"]:
                raise CheckpointError(
                    "checkpoint file fails its CRC (corrupt payload)",
                    path=path, reason=rel,
                )
        on_disk = {
            p.relative_to(path).as_posix()
            for p in path.rglob("*") if p.is_file()
        } - {_MANIFEST}
        extra = on_disk - set(files)
        if extra:
            raise CheckpointError(
                "checkpoint holds files the manifest does not cover",
                path=path, reason=", ".join(sorted(extra)[:3]),
            )

    def valid_steps(self) -> Dict[int, Path]:
        """``{step: path}`` of every published set that validates; counts
        each invalid set as a checkpoint fallback."""
        out: Dict[int, Path] = {}
        for ckpt in self.checkpoints():
            try:
                self.validate(ckpt)
            except CheckpointError:
                self.obs.counter("resilience.checkpoint_fallbacks").inc()
                continue
            out[self.step_of(ckpt)] = ckpt
        return out

    def latest_valid(self) -> Optional[Path]:
        """Newest checkpoint that passes validation (None if none do);
        counts every invalid set skipped as a checkpoint fallback."""
        for ckpt in reversed(self.checkpoints()):
            try:
                self.validate(ckpt)
                return ckpt
            except CheckpointError:
                self.obs.counter("resilience.checkpoint_fallbacks").inc()
        return None

    def restore_latest_valid(self, loader: Callable[[Path], None]) -> Path:
        """Load the newest valid checkpoint via ``loader(directory)``.

        Walks newest → oldest; a set that fails validation *or* whose
        load raises a restart error is skipped (counted as a fallback)
        and the next older one is tried.  Raises :class:`CheckpointError`
        when nothing on disk survives.
        """
        with self.obs.span("resilience.restore"):
            tried = 0
            for ckpt in reversed(self.checkpoints()):
                tried += 1
                try:
                    self.validate(ckpt)
                    loader(ckpt)
                except (CheckpointError, RestartError):
                    self.obs.counter("resilience.checkpoint_fallbacks").inc()
                    continue
                self.obs.counter("resilience.restores").inc()
                return ckpt
        raise CheckpointError(
            "no valid checkpoint to restore from",
            path=self.root, reason=f"{tried} candidate(s) all failed",
        )
