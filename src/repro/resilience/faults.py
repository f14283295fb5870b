"""Deterministic fault injection: the FaultPlan and its injectors.

A :class:`FaultPlan` is a seeded, JSON-serializable description of every
fault a chaos run will inject:

* **comm faults** — transient send failures (succeed on retry), dropped
  or bit-corrupted messages, and rank kills, executed inside the
  simulated MPI runtime by :class:`CommFaultInjector`;
* **checkpoint faults** — truncation, bit-flips, and stale manifest
  versions applied to restart sets on disk by
  :func:`corrupt_checkpoint`;
* **physics faults** — NaN or blow-up tendencies injected into the
  (AI) physics output by :class:`PhysicsFaultInjector`, keyed on the
  atmosphere *model step* so a replay after checkpoint recovery
  re-injects the identical faults (the property the chaos harness's
  bitwise comparison relies on);
* **service faults** — ``worker_kill`` entries, coupling-keyed and
  job-scoped (the service-layer analogue of PR 8's ``member`` key),
  executed by :class:`ServiceFaultInjector` inside the
  :mod:`repro.serve` job scheduler: the targeted job's worker dies
  mid-run and the reaper must requeue and resume it.

Everything is deterministic via :mod:`repro.utils.rng`; nothing here is
imported by the runtime unless a plan is actually installed.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..io.restart import write_atomic_text
from ..obs import NULL_OBS
from ..parallel.comm import CommTransientError, RankFailure
from ..utils.rng import seeded
from .errors import WorkerKilled

__all__ = [
    "CommFault",
    "CheckpointFault",
    "PhysicsFault",
    "ServiceFault",
    "FaultPlan",
    "FaultPlanError",
    "CommFaultInjector",
    "PhysicsFaultInjector",
    "ServiceFaultInjector",
    "corrupt_checkpoint",
]


class FaultPlanError(ValueError):
    """A fault plan failed validation; names the offending key/path so a
    malformed JSON file is diagnosable instead of surfacing as a raw
    ``KeyError``/``TypeError`` deep in the injectors.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the old unknown-key errors keep working.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"fault plan: {message} [at {path}]")
        self.path = path

_COMM_KINDS = ("transient", "drop", "corrupt", "kill")
_CKPT_KINDS = ("bitflip", "truncate", "stale")
_PHYS_KINDS = ("nan", "blowup")
_SERVICE_KINDS = ("worker_kill",)


@dataclass(frozen=True)
class CommFault:
    """One fault on the simulated interconnect.

    ``match`` selects which send on the (src, dst) edge is hit (0-based,
    counted per edge); ``times`` is how many consecutive attempts of that
    send fail for ``transient`` faults (a retry beyond that succeeds).
    ``kill`` faults ignore the edge and kill ``rank`` at its
    ``after_ops``-th comm operation.

    A non-None ``member`` scopes the fault to ONE ensemble member: the
    fleet supervisor injects it at that member's fault boundary instead
    of the simulated interconnect — ``match`` then selects the member's
    coupling index, ``times`` how many consecutive couplings time out
    (``transient`` surfaces as a comm timeout, ``kill`` as a rank
    failure; ``drop``/``corrupt`` are payload-level and cannot be member
    scoped).  Member-less faults keep their exact interconnect meaning.
    """

    kind: str
    src: int = 0
    dst: int = 0
    match: int = 0
    times: int = 1
    rank: int = 0
    after_ops: int = 0
    member: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _COMM_KINDS:
            raise ValueError(f"unknown comm fault kind {self.kind!r}; "
                             f"choose from {_COMM_KINDS}")
        _check_member(self.member)
        if self.member is not None and self.kind not in ("transient", "kill"):
            raise ValueError(
                f"member scoping supports only transient and kill comm "
                f"faults, got {self.kind!r}"
            )


@dataclass(frozen=True)
class CheckpointFault:
    """Corruption applied to one checkpoint directory at crash time.

    ``index`` selects the checkpoint in chronological order (negative
    indexes from the newest, Python-style: -1 = latest).
    """

    kind: str
    index: int = -1

    def __post_init__(self) -> None:
        if self.kind not in _CKPT_KINDS:
            raise ValueError(f"unknown checkpoint fault kind {self.kind!r}; "
                             f"choose from {_CKPT_KINDS}")


@dataclass(frozen=True)
class PhysicsFault:
    """Corrupt the physics suite's output at one atmosphere model step.

    Either list explicit ``columns``, or give ``n_columns`` and let the
    plan's seed pick them deterministically.

    A non-None ``member`` scopes the fault to ONE ensemble member: the
    fleet supervisor corrupts that member's atmosphere state once when
    its model-step counter reaches ``step`` (member-less faults keep
    their exact injector meaning, firing in every model the plan is
    installed into).
    """

    kind: str
    step: int
    columns: Tuple[int, ...] = ()
    n_columns: int = 0
    member: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _PHYS_KINDS:
            raise ValueError(f"unknown physics fault kind {self.kind!r}; "
                             f"choose from {_PHYS_KINDS}")
        if not self.columns and self.n_columns <= 0:
            raise ValueError("physics fault needs columns or n_columns > 0")
        _check_member(self.member)

    def pick_columns(self, ncol: int, seed: int) -> List[int]:
        """The columns this fault corrupts in an ``ncol``-column state:
        the explicit ``columns`` that fit, else ``n_columns`` drawn from
        the plan ``seed`` (the same draw on every replay of this step)."""
        if self.columns:
            return [c for c in self.columns if 0 <= c < ncol]
        rng = seeded("physics-fault", seed, self.kind, self.step)
        return list(rng.choice(ncol, size=min(self.n_columns, ncol), replace=False))


@dataclass(frozen=True)
class ServiceFault:
    """Kill one scenario-service worker mid-job (simulated SIGKILL).

    Coupling-keyed and job-scoped, mirroring PR 8's member-scoped
    faults: the fault fires when the job named by ``job`` reaches
    coupling index ``coupling`` (``job=None`` scopes it to *every*
    job).  One-shot per scheduler run — after the reaper requeues the
    job and the resumed attempt replays the same coupling, the fault
    does not re-fire, so every chaos experiment terminates.
    """

    kind: str
    coupling: int = 0
    job: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _SERVICE_KINDS:
            raise ValueError(f"unknown service fault kind {self.kind!r}; "
                             f"choose from {_SERVICE_KINDS}")
        if not isinstance(self.coupling, int) or isinstance(self.coupling, bool) \
                or self.coupling < 0:
            raise ValueError(
                f"coupling must be a non-negative integer, got {self.coupling!r}"
            )
        if self.job is not None and not isinstance(self.job, str):
            raise ValueError(f"job must be a string or null, got {self.job!r}")


def _check_member(member: Optional[int]) -> None:
    if member is None:
        return
    if not isinstance(member, int) or isinstance(member, bool) or member < 0:
        raise ValueError(
            f"member must be a non-negative integer, got {member!r}"
        )


@dataclass
class FaultPlan:
    """The complete, seeded description of a chaos experiment."""

    seed: int = 0
    comm: List[CommFault] = field(default_factory=list)
    checkpoints: List[CheckpointFault] = field(default_factory=list)
    physics: List[PhysicsFault] = field(default_factory=list)
    #: Service-level faults (``worker_kill``) the job scheduler injects.
    service: List[ServiceFault] = field(default_factory=list)
    #: Coupling index at which the chaos harness simulates a crash
    #: (None = let the harness pick one past the first checkpoint).
    crash_at_coupling: Optional[int] = None

    # -- (de)serialization -------------------------------------------------

    @staticmethod
    def from_dict(data: Dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError("$", f"plan must be an object, got {type(data).__name__}")
        known = {"seed", "comm", "checkpoints", "physics", "service",
                 "crash_at_coupling"}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(
                "$", f"unknown fault-plan keys: {sorted(unknown)}"
            )
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultPlanError("$.seed", f"seed must be an integer, got {seed!r}")
        crash = data.get("crash_at_coupling")
        if crash is not None and (not isinstance(crash, int) or isinstance(crash, bool)):
            raise FaultPlanError(
                "$.crash_at_coupling",
                f"crash_at_coupling must be an integer or null, got {crash!r}",
            )
        return FaultPlan(
            seed=seed,
            comm=_parse_entries("comm", data.get("comm", []), CommFault),
            checkpoints=_parse_entries(
                "checkpoints", data.get("checkpoints", []), CheckpointFault
            ),
            physics=_parse_entries(
                "physics", data.get("physics", []), PhysicsFault,
                transform=lambda f: {**f, "columns": tuple(f.get("columns", ()))},
            ),
            service=_parse_entries(
                "service", data.get("service", []), ServiceFault
            ),
            crash_at_coupling=crash,
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(
                f"$ (line {exc.lineno}, column {exc.colno})",
                f"not valid JSON: {exc.msg}",
            ) from None
        return FaultPlan.from_dict(data)

    @staticmethod
    def from_file(path: Union[str, Path]) -> "FaultPlan":
        return FaultPlan.from_json(Path(path).read_text())

    def to_file(self, path: Union[str, Path]) -> Path:
        """Write the plan as JSON (the inverse of :meth:`from_file`)."""
        return write_atomic_text(path, self.to_json())

    def to_json(self) -> str:
        data = asdict(self)
        data["physics"] = [
            {**f, "columns": list(f["columns"])} for f in data["physics"]
        ]
        return json.dumps(data, indent=2, sort_keys=True)

    @property
    def n_faults(self) -> int:
        return (len(self.comm) + len(self.checkpoints) + len(self.physics)
                + len(self.service))

    # -- ensemble member scoping -------------------------------------------

    @property
    def member_scoped(self) -> bool:
        """True when any comm/physics fault targets one ensemble member."""
        return any(
            f.member is not None
            for f in itertools.chain(self.comm, self.physics)
        )

    def member_targets(self) -> List[int]:
        """Sorted member indices any fault in the plan targets."""
        return sorted({
            f.member
            for f in itertools.chain(self.comm, self.physics)
            if f.member is not None
        })

    def for_member(self, k: int) -> Tuple[List[PhysicsFault], List["CommFault"]]:
        """(physics, comm) faults scoped to member ``k``."""
        return (
            [f for f in self.physics if f.member == k],
            [f for f in self.comm if f.member == k],
        )

    def without_members(self) -> "FaultPlan":
        """The plan with every member-scoped fault removed — what global
        (interconnect / per-model) injectors should consume, so a mixed
        plan's member faults never leak into every member."""
        return FaultPlan(
            seed=self.seed,
            comm=[f for f in self.comm if f.member is None],
            checkpoints=list(self.checkpoints),
            physics=[f for f in self.physics if f.member is None],
            service=list(self.service),
            crash_at_coupling=self.crash_at_coupling,
        )


def _parse_entries(section: str, entries, cls, transform=None) -> List:
    """Build fault dataclasses from a plan section, converting every
    malformed entry into a :class:`FaultPlanError` naming its path."""
    if not isinstance(entries, (list, tuple)):
        raise FaultPlanError(
            f"$.{section}",
            f"must be a list of objects, got {type(entries).__name__}",
        )
    out: List = []
    valid = {f.name for f in dataclass_fields(cls)}
    for i, entry in enumerate(entries):
        path = f"$.{section}[{i}]"
        if not isinstance(entry, dict):
            raise FaultPlanError(
                path, f"must be an object, got {type(entry).__name__}"
            )
        extra = set(entry) - valid
        if extra:
            raise FaultPlanError(
                f"{path}.{sorted(extra)[0]}",
                f"unknown key(s) {sorted(extra)} (valid: {sorted(valid)})",
            )
        payload = transform(entry) if transform is not None else entry
        for f in dataclass_fields(cls):
            if f.name not in payload:
                continue
            v = payload[f.name]
            if f.type in ("int", int) and (
                not isinstance(v, int) or isinstance(v, bool)
            ):
                raise FaultPlanError(
                    f"{path}.{f.name}",
                    f"{f.name} must be an integer, got {v!r}",
                )
            if f.type in ("str", str) and not isinstance(v, str):
                raise FaultPlanError(
                    f"{path}.{f.name}",
                    f"{f.name} must be a string, got {v!r}",
                )
        try:
            out.append(cls(**payload))
        except (ValueError, TypeError) as exc:
            key = _error_key(cls, exc)
            raise FaultPlanError(f"{path}{key}", str(exc)) from None
    return out


def _error_key(cls, exc: BaseException) -> str:
    """``.{field}`` for the dataclass field a validation message names
    (longest word-boundary match wins, so ``n_columns`` beats
    ``columns``), or ``""`` when no field is identifiable."""
    msg = str(exc)
    hits = [
        f.name for f in dataclass_fields(cls)
        if re.search(rf"\b{re.escape(f.name)}\b", msg)
    ]
    return f".{max(hits, key=len)}" if hits else ""


class CommFaultInjector:
    """Executes a plan's comm faults inside the simulated runtime.

    Installed via ``SimWorld(n, faults=injector)``; the runtime calls
    ``on_send``/``on_recv`` (see :class:`repro.parallel.comm.SimWorld`).
    Thread-safe: ranks are threads.  A live ``obs`` handle counts every
    injection under ``resilience.faults_injected``.
    """

    def __init__(self, plan: FaultPlan, obs=None) -> None:
        self._plan = plan
        # Member-scoped faults belong to the fleet supervisor's boundary,
        # not the interconnect; a mixed plan must not leak them here.
        self._comm = [f for f in plan.comm if f.member is None]
        self._obs = obs if obs is not None else NULL_OBS
        self._lock = threading.Lock()
        self._edge_sends: Dict[Tuple[int, int], int] = {}
        self._rank_ops: Dict[int, int] = {}
        self._remaining: Dict[int, int] = {
            i: f.times for i, f in enumerate(self._comm) if f.kind == "transient"
        }
        self._fired: set = set()
        self._kills = {f.rank: f.after_ops for f in self._comm if f.kind == "kill"}
        self.injected = 0

    def _count(self) -> None:
        self.injected += 1
        self._obs.counter("resilience.faults_injected").inc()

    def _check_kill(self, rank: int, op: str) -> None:
        budget = self._kills.get(rank)
        if budget is None:
            return
        done = self._rank_ops.get(rank, 0)
        if done >= budget:
            del self._kills[rank]
            self._count()
            raise RankFailure(rank, op)
        self._rank_ops[rank] = done + 1

    def on_send(self, src: int, dst: int, tag: int, payload):
        """May raise, corrupt (returns a new payload), or drop (returns
        None); otherwise returns the payload unchanged."""
        with self._lock:
            self._check_kill(src, f"send(dst={dst}, tag={tag})")
            edge = (src, dst)
            seq = self._edge_sends.get(edge, 0)
            for i, f in enumerate(self._comm):
                if f.kind == "kill" or (f.src, f.dst) != edge or f.match != seq:
                    continue
                if f.kind == "transient":
                    left = self._remaining.get(i, 0)
                    if left > 0:
                        self._remaining[i] = left - 1
                        self._count()
                        # Do NOT advance the edge counter: the retry is
                        # attempt seq again, failing until times exhausted.
                        raise CommTransientError(src, dst, tag,
                                                 attempt=f.times - left)
                elif i not in self._fired:
                    self._fired.add(i)
                    self._edge_sends[edge] = seq + 1
                    self._count()
                    if f.kind == "drop":
                        return None
                    return _bitflip_payload(
                        payload, seeded("comm-corrupt", self._plan.seed, i)
                    )
            self._edge_sends[edge] = seq + 1
            return payload

    def on_recv(self, rank: int, source, tag: int) -> None:
        with self._lock:
            self._check_kill(rank, f"recv(src={source}, tag={tag})")


def _bitflip_payload(payload, rng: np.random.Generator):
    """Flip one bit of an ndarray payload (other payload types pass
    through untouched — the rearranger only moves arrays)."""
    if not isinstance(payload, np.ndarray) or payload.nbytes == 0:
        return payload
    corrupted = payload.copy()
    raw = corrupted.view(np.uint8).reshape(-1)
    pos = int(rng.integers(0, raw.size))
    raw[pos] ^= np.uint8(1 << int(rng.integers(0, 8)))
    return corrupted


class PhysicsFaultInjector:
    """Applies a plan's physics faults to a tendencies object in place.

    Keyed on the atmosphere model step (monotone, restored by restart),
    so replays after checkpoint recovery re-inject identically.  Returns
    the number of columns corrupted at this step.
    """

    def __init__(self, plan: FaultPlan, obs=None) -> None:
        self._by_step: Dict[int, List[PhysicsFault]] = {}
        for f in plan.physics:
            if f.member is not None:
                # Member-scoped faults fire at the fleet supervisor's
                # boundary, never in a per-model injector.
                continue
            self._by_step.setdefault(f.step, []).append(f)
        self._seed = plan.seed
        self._obs = obs if obs is not None else NULL_OBS

    @property
    def steps(self) -> List[int]:
        return sorted(self._by_step)

    def apply(self, tend, step: int) -> int:
        faults = self._by_step.get(step)
        if not faults:
            return 0
        ncol = tend.dt.shape[0]
        hit: set = set()
        for f in faults:
            cols = f.pick_columns(ncol, self._seed)
            idx = np.asarray(cols, dtype=int)
            if f.kind == "nan":
                tend.dt[idx, :] = np.nan
                tend.dq[idx, :] = np.nan
            else:  # blowup: far past any physical tendency magnitude
                tend.dt[idx, :] = 1.0e6
                tend.du[idx, :] = 1.0e6
            hit.update(cols)
        if hit:
            self._obs.counter("resilience.faults_injected").inc(len(faults))
        return len(hit)


class ServiceFaultInjector:
    """Executes a plan's ``worker_kill`` faults inside the job scheduler.

    The worker driving a job calls :meth:`check` once per coupling
    (before stepping); a matching fault raises
    :class:`~repro.resilience.errors.WorkerKilled`, which the scheduler
    classifies as an interruption — requeue and resume, never a job
    failure.  One-shot per injector instance: the resumed attempt
    replays the same coupling without re-dying, so chaos runs terminate.
    Thread-safe (scheduler workers may be threads).
    """

    def __init__(self, plan: FaultPlan, obs=None) -> None:
        self._faults = list(plan.service)
        self._fired: set = set()
        self._obs = obs if obs is not None else NULL_OBS
        self._lock = threading.Lock()
        self.injected = 0

    def check(self, job_id: str, coupling: int) -> None:
        """Raise :class:`WorkerKilled` when a not-yet-fired fault
        targets ``job_id`` (or every job) at this coupling."""
        with self._lock:
            for i, f in enumerate(self._faults):
                if i in self._fired:
                    continue
                if f.job is not None and f.job != job_id:
                    continue
                if f.coupling != coupling:
                    continue
                self._fired.add(i)
                self.injected += 1
                self._obs.counter("resilience.faults_injected").inc()
                raise WorkerKilled(job_id, coupling)


def corrupt_checkpoint(
    path: Union[str, Path],
    kind: str,
    rng: Optional[np.random.Generator] = None,
) -> Path:
    """Damage a checkpoint/restart directory on disk, one of the three
    corruption modes the resilience layer must detect:

    * ``bitflip`` — XOR one bit of one subfile payload;
    * ``truncate`` — chop a subfile short;
    * ``stale`` — rewrite every manifest's version to an unsupported one.

    Returns the file actually damaged.
    """
    if kind not in _CKPT_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}; "
                         f"choose from {_CKPT_KINDS}")
    path = Path(path)
    rng = rng if rng is not None else seeded("corrupt-checkpoint", str(path), kind)
    if kind == "stale":
        manifests = sorted(path.rglob("*.json"))
        if not manifests:
            raise FileNotFoundError(f"no manifest under {path}")
        for m in manifests:
            data = json.loads(m.read_text())
            data["version"] = 99
            m.write_text(json.dumps(data))
        return manifests[0]
    subfiles = sorted(path.rglob("*.bin"))
    if not subfiles:
        raise FileNotFoundError(f"no subfiles under {path}")
    victim = subfiles[int(rng.integers(0, len(subfiles)))]
    raw = bytearray(victim.read_bytes())
    if kind == "truncate":
        victim.write_bytes(bytes(raw[: max(1, len(raw) // 2)]))
    else:  # bitflip
        pos = int(rng.integers(0, len(raw)))
        raw[pos] ^= 1 << int(rng.integers(0, 8))
        victim.write_bytes(bytes(raw))
    return victim
