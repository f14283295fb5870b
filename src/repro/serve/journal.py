"""The durable job journal: an append-only, CRC'd JSONL log.

Every job-table mutation is ONE appended record; the in-memory table is
always reconstructible by replaying the journal from the top, so a
service killed at ANY instant restarts into a consistent state:

* **Record format** — one JSON object per line::

      {"v": 1, "seq": N, "crc": C, "body": {...}}

  where ``C`` is the crc32 of the canonical (sorted-keys, tight-
  separator) JSON encoding of ``body``.  ``seq`` is strictly monotone.
  :func:`_encode` writes a record and :func:`read_journal` reads one.
* **Torn-tail tolerance** — replay stops at the first record that fails
  to parse, fails its CRC, or breaks the seq order: a write cut short by
  SIGKILL loses at most the record being appended, never the prefix.
* **Idempotent replay** — state records carry the job's *absolute* state
  (state + attempts + failures + result), not increments, and records
  with a seq at or below the last applied one are skipped — replaying a
  journal with a duplicated or re-read suffix converges to the same
  table as replaying it once.
* **Segment rotation** — past ``rotate_every`` appends the journal is
  compacted: one snapshot record holding the full table is published
  over the journal by ``write_atomic_text``, so the log stays
  bounded and the swap is atomic (a crash leaves either the old full
  journal or the new compacted one, never a mix).
* **Exclusive** — the store holds a non-blocking
  :func:`~repro.io.restart.lock_exclusive` on ``<root>/.serve.lock`` for
  its lifetime: two services cannot share one journal, and a SIGKILL'd
  holder releases the lock with its fd.

Chaos hooks: ``crash_at=("before"|"after", k)`` raises
:class:`~repro.serve.spec.ServiceCrash` immediately before (after) the
k-th append this process performs — the deterministic stand-in for a
SIGKILL landing between any two journal records.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from ..io.restart import lock_exclusive, write_atomic_text
from ..obs import NULL_OBS
from .spec import JobRecord, JobSpec, ServeError, ServiceCrash

__all__ = ["JobStore", "read_journal"]

_JOURNAL = "journal.jsonl"
_LOCKFILE = ".serve.lock"
_VERSION = 1


def _crc(body: Dict) -> int:
    """crc32 of ``body``'s canonical (sorted-keys, tight-separator) JSON."""
    return zlib.crc32(json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def _encode(seq: int, body: Dict) -> str:
    """The one record encoder: one JSONL line, the inverse of :func:`read_journal`."""
    rec = {"v": _VERSION, "seq": seq, "crc": _crc(body), "body": body}
    return json.dumps(rec, sort_keys=True) + "\n"


def read_journal(path: Union[str, Path]) -> Iterator[Tuple[int, Dict]]:
    """The one record decoder: ``(seq, body)`` per record in file order,
    up to the first torn, other-version or bad-CRC line (the valid prefix)."""
    with Path(path).open("r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                body = rec["body"]
                if rec["v"] != _VERSION or rec["crc"] != _crc(body):
                    return
                seq = int(rec["seq"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                return
            yield seq, body


class JobStore:
    """One journal directory: the durable job table plus its log."""

    def __init__(
        self,
        root: Union[str, Path],
        rotate_every: int = 500,
        obs=None,
        crash_at: Optional[Tuple[str, int]] = None,
    ) -> None:
        if rotate_every < 2:
            raise ValueError("rotate_every must be >= 2")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / _JOURNAL
        self.rotate_every = rotate_every
        self.obs = obs if obs is not None else NULL_OBS
        self.crash_at = crash_at
        self.jobs: Dict[str, JobRecord] = {}
        self._seq = 0
        #: Appends performed by THIS process (the chaos crash-hook index).
        self.appends = 0
        self._since_snapshot = 0
        try:
            self._lock: Optional[IO] = lock_exclusive(self.root / _LOCKFILE, blocking=False)
        except OSError:
            raise ServeError(
                f"journal {self.root} is already owned by a live service "
                "(flock held); refusing to double-serve one job table"
            ) from None
        self.replay()

    # -- exclusivity -------------------------------------------------------

    def close(self) -> None:
        """Release the journal lock (a real service exiting cleanly, or
        the chaos harness standing in for kernel fd cleanup after a
        simulated SIGKILL — nothing is flushed or written here)."""
        if self._lock is not None:
            self._lock.close()
            self._lock = None

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ------------------------------------------------------------

    def replay(self) -> int:
        """(Re)build the job table from the journal; returns the number
        of records applied.  Tolerates a torn tail and duplicated
        records (see module docstring); never raises on a damaged
        suffix — the valid prefix wins."""
        self.jobs = {}
        self._seq = 0
        self._since_snapshot = 0
        applied = 0
        if not self.path.exists():
            return 0
        for seq, body in read_journal(self.path):
            if seq <= self._seq:
                continue  # duplicated record: idempotent replay skips
            if seq != self._seq + 1 and self._seq != 0:
                break  # a gap means a damaged suffix
            self._seq = seq
            self._apply(body)
            applied += 1
            self._since_snapshot += 1
        self.obs.counter("serve.journal.replayed_records").inc(applied)
        return applied

    def _apply(self, body: Dict) -> None:
        event = body.get("event")
        if event == "submit":
            spec = JobSpec.from_dict(body["spec"])
            self.jobs[spec.job_id] = JobRecord(
                spec=spec, submitted_seq=int(body.get("submitted_seq", self._seq))
            )
        elif event == "state":
            rec = self.jobs.get(body["job_id"])
            if rec is None:
                return  # state for an unknown job: tolerated, not fatal
            rec.state = body["state"]
            rec.attempts = int(body["attempts"])
            rec.failures = int(body["failures"])
            rec.error = body.get("error")
            rec.result = body.get("result")
        elif event == "snapshot":
            self.jobs = {
                job_id: JobRecord.from_dict(data)
                for job_id, data in body["jobs"].items()
            }
            self._since_snapshot = 0
        # Unknown events are skipped: a newer service's records must not
        # brick an older replayer.

    # -- append ------------------------------------------------------------

    def _append(self, body: Dict) -> None:
        if self.crash_at == ("before", self.appends):
            raise ServiceCrash("before", self.appends)
        self._seq += 1
        with self.path.open("a", encoding="utf-8") as f:
            f.write(_encode(self._seq, body))
            f.flush()
        self._apply(body)
        self.obs.counter("serve.journal.records").inc()
        index = self.appends
        self.appends += 1
        self._since_snapshot += 1
        if self.crash_at == ("after", index):
            raise ServiceCrash("after", index)
        if self._since_snapshot >= self.rotate_every:
            self._rotate()

    def _rotate(self) -> None:
        """Compact the journal to one snapshot record, atomically."""
        self._seq += 1
        body = {
            "event": "snapshot",
            "jobs": {job_id: rec.to_dict() for job_id, rec in self.jobs.items()},
        }
        write_atomic_text(self.path, _encode(self._seq, body))
        self._since_snapshot = 0
        self.obs.counter("serve.journal.rotations").inc()

    # -- mutations ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        if spec.job_id in self.jobs:
            raise ServeError(f"job {spec.job_id!r} already exists "
                             f"(state {self.jobs[spec.job_id].state!r})")
        self._append({
            "event": "submit",
            "spec": spec.to_dict(),
            "submitted_seq": self._seq + 1,
        })
        return self.jobs[spec.job_id]

    def update(
        self,
        job_id: str,
        state: str,
        attempts: Optional[int] = None,
        failures: Optional[int] = None,
        error: Optional[str] = None,
        result: Optional[Dict[str, object]] = None,
    ) -> JobRecord:
        """Journal a job's new ABSOLUTE state (counters default to the
        current values, so callers only name what changed)."""
        rec = self.jobs[job_id]
        self._append({
            "event": "state",
            "job_id": job_id,
            "state": state,
            "attempts": rec.attempts if attempts is None else attempts,
            "failures": rec.failures if failures is None else failures,
            "error": error,
            "result": result,
        })
        return self.jobs[job_id]

    # -- queries -----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rec in self.jobs.values():
            out[rec.state] = out.get(rec.state, 0) + 1
        return out

    def queued_jobs(self) -> List[JobRecord]:
        """Dispatchable jobs in FIFO submit order."""
        return sorted(
            (r for r in self.jobs.values() if r.state == "queued"),
            key=lambda r: r.submitted_seq,
        )

    @property
    def depth(self) -> int:
        """Jobs occupying the service (queued + running) — what
        admission control bounds."""
        return sum(
            1 for r in self.jobs.values() if r.state in ("queued", "running")
        )
