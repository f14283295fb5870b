"""Fleet supervisor: member-level fault isolation for ensemble runs.

PR 7's :class:`~repro.esm.ensemble.EnsembleRun` steps N coupled members
in one process with zero fault boundary — any member exception kills the
whole fleet.  The :class:`FleetSupervisor` is that boundary: it wraps
every member's coupling step, classifies what went wrong into a
structured :class:`MemberEvent`, and applies a per-member
:class:`MemberPolicy`:

* ``fail_fast`` — record the event and re-raise the original exception
  unchanged (the pre-supervisor behavior, and the default);
* ``quarantine`` — remove the member from the fleet mid-run.  The
  lockstep driver and the batched-physics stack shrink dynamically, and
  the survivors' trajectories stay **bitwise identical** to a fleet that
  never contained the failed member's faults (column independence + the
  fixed per-row GEMM reduction order make the batched call insensitive
  to which members share it);
* ``restart`` — roll the member back to its newest valid rotating
  checkpoint (its own :class:`~repro.resilience.checkpoint.\
CheckpointManager` under ``member<k>/``), replay it forward to the fleet
  clock *solo* (the lockstep hook is detached during replay; the batched
  == sequential contract makes the replay bitwise-equal to the fleet
  path), and rejoin it to lockstep bitwise-identical to a never-faulted
  twin.  A member that exhausts ``restart_max`` restarts — or whose
  replay itself fails — escalates to quarantine.

Member-scoped faults from a :class:`~repro.resilience.faults.FaultPlan`
(entries with a ``member`` key) are injected here, at the fault
boundary: physics faults corrupt the member's atmosphere state once at
their model step, comm faults surface as timeouts/rank failures at the
member's coupling.  Injection is one-shot — a restart replays *clean*,
which is exactly what makes the never-faulted-twin comparison exact.

Everything is observable: ``ensemble.supervisor.*`` counters (events,
quarantines, restarts, escalations, replayed couplings, injected
faults) and an ``ensemble.supervisor.alive`` gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..io.restart import RestartError
from ..parallel.comm import (
    CommRevokedError,
    CommTimeoutError,
    CommTransientError,
    RankFailure,
)
from .errors import CheckpointError, ResilienceError, WatchdogTimeout
from .faults import CommFault, FaultPlan, PhysicsFault

__all__ = [
    "MemberPolicy",
    "MemberEvent",
    "PhysicsBlowupError",
    "FleetSupervisor",
    "classify_failure",
]


class MemberPolicy(Enum):
    """What the supervisor does with one member's failure."""

    FAIL_FAST = "fail_fast"
    QUARANTINE = "quarantine"
    RESTART = "restart"

    @staticmethod
    def parse(name: str) -> "MemberPolicy":
        try:
            return MemberPolicy(name)
        except ValueError:
            raise ValueError(
                f"unknown member_policy {name!r}; choose from "
                f"{tuple(p.value for p in MemberPolicy)}"
            ) from None


class PhysicsBlowupError(ResilienceError):
    """A member's post-step health check found a poisoned atmosphere
    (non-finite state or an unphysical temperature magnitude)."""

    def __init__(self, member: int, coupling: int, detail: str) -> None:
        super().__init__(
            f"member {member} blew up at coupling {coupling}: {detail}"
        )
        self.member = member
        self.coupling = coupling
        self.detail = detail


#: Failure classes the supervisor contains; anything else (a programming
#: error, KeyboardInterrupt, ...) propagates untouched.
FAULT_TYPES: Tuple[type, ...] = (
    FloatingPointError,
    ResilienceError,       # PhysicsBlowupError, CheckpointError, WatchdogTimeout
    RestartError,
    CommTransientError,
    CommTimeoutError,
    CommRevokedError,
    RankFailure,
)


def classify_failure(exc: BaseException) -> str:
    """Map an exception to the supervisor's event taxonomy."""
    if isinstance(exc, (PhysicsBlowupError, FloatingPointError)):
        return "physics_blowup"
    if isinstance(exc, WatchdogTimeout):
        return "watchdog"
    if isinstance(exc, (CheckpointError, RestartError)):
        return "checkpoint_corruption"
    if isinstance(exc, (RankFailure, CommRevokedError)):
        return "rank_failure"
    if isinstance(exc, (CommTimeoutError, CommTransientError)):
        return "comm_timeout"
    return "unknown"


@dataclass
class MemberEvent:
    """One supervised member failure and what was done about it."""

    member: int
    coupling: int
    #: Taxonomy bucket from :func:`classify_failure`.
    kind: str
    #: Exception class name (the full message lands in ``detail``).
    error: str
    #: ``fail_fast`` | ``quarantine`` | ``restart`` | ``escalate``.
    action: str
    detail: str = ""
    replayed_couplings: int = 0
    restored_from: Optional[str] = None


class FleetSupervisor:
    """The per-coupling fault boundary around every ensemble member.

    Built by :class:`~repro.esm.ensemble.EnsembleRun` when resilience is
    enabled; drives one fleet coupling via :meth:`step_fleet`.
    """

    #: Post-step health check: any |T| beyond this (K) is a blow-up.
    BLOWUP_T = 1.0e4

    def __init__(
        self,
        members: Sequence[object],
        policy: MemberPolicy,
        *,
        restart_max: int = 2,
        lockstep=None,
        plan: Optional[FaultPlan] = None,
        obs=None,
    ) -> None:
        from ..obs import NULL_OBS

        self.members = list(members)
        self.policy = policy
        self.restart_max = restart_max
        self.lockstep = lockstep
        self.obs = obs if obs is not None else NULL_OBS
        self.alive: List[bool] = [True] * len(self.members)
        self.restarts_used: List[int] = [0] * len(self.members)
        self.events: List[MemberEvent] = []
        self.couplings = 0
        self.quarantines = 0
        self.restarts = 0
        self.escalations = 0
        self.replayed_total = 0
        self.faults_injected = 0
        self._seed = plan.seed if plan is not None else 0
        #: One-shot member-scoped fault queues (popped when fired, so a
        #: restart replays clean and the never-faulted twin is exact).
        self._phys_pending: Dict[int, List[PhysicsFault]] = {}
        self._comm_pending: Dict[int, List[CommFault]] = {}
        if plan is not None:
            for k in plan.member_targets():
                if k >= len(self.members):
                    raise ValueError(
                        f"fault plan targets member {k} but the ensemble "
                        f"has {len(self.members)} member(s)"
                    )
                phys, comm = plan.for_member(k)
                if phys:
                    self._phys_pending[k] = list(phys)
                if comm:
                    self._comm_pending[k] = list(comm)
        if self.policy is MemberPolicy.RESTART:
            for k, m in enumerate(self.members):
                if getattr(m, "checkpoints", None) is None:
                    raise ValueError(
                        "member_policy='restart' needs a rollback target: "
                        "set resilience.checkpoint_every/checkpoint_dir "
                        f"(member {k} has no checkpoint manager)"
                    )

    # -- fleet status ------------------------------------------------------

    @property
    def n_alive(self) -> int:
        return sum(self.alive)

    @property
    def quarantined(self) -> List[int]:
        return [k for k, ok in enumerate(self.alive) if not ok]

    def alive_members(self) -> List[Tuple[int, object]]:
        return [
            (k, m) for k, m in enumerate(self.members) if self.alive[k]
        ]

    # -- the supervised coupling -------------------------------------------

    def step_fleet(self) -> None:
        """One coupling interval for every alive member, inside the fault
        boundary; failures are handled after every member attempted its
        step, so a restarted member replays to a settled fleet clock."""
        target = self.couplings + 1
        roster = self.alive_members()
        if self.policy is MemberPolicy.RESTART and self.couplings == 0:
            # Seed checkpoint: a failure before the first cadence interval
            # needs a rollback target (same-step saves replace, so this is
            # idempotent across re-entry).
            for k, m in roster:
                if m.n_couplings == 0:
                    m.checkpoint()
        for k, m in roster:
            self._inject_physics(k, m)
        failures: List[Tuple[int, object, BaseException]] = []
        for k, m in roster:
            try:
                self._raise_comm(k, m)
                m.step_coupling()
                self._health_check(k, m)
            except FAULT_TYPES as exc:
                if self.policy is MemberPolicy.FAIL_FAST:
                    self._record(MemberEvent(
                        member=k, coupling=m.n_couplings,
                        kind=classify_failure(exc),
                        error=type(exc).__name__,
                        action="fail_fast", detail=str(exc),
                    ))
                    raise
                failures.append((k, m, exc))
        for k, m, exc in failures:
            self._handle_failure(k, m, exc, target)
        for k, m in self.alive_members():
            every = m.config.resilience.checkpoint_every
            if m.checkpoints is not None and m.n_couplings % every == 0:
                m.checkpoint()
        self.couplings = target
        if not any(self.alive):
            raise ResilienceError(
                f"entire fleet quarantined by coupling {target}: "
                f"{len(self.members)} member(s) failed and no survivor "
                "remains to continue the run"
            )

    # -- member-scoped fault injection -------------------------------------

    def _inject_physics(self, k: int, m) -> None:
        """Corrupt member ``k``'s atmosphere state for any scoped physics
        fault whose model step falls inside this coupling (one-shot)."""
        pending = self._phys_pending.get(k)
        if not pending:
            return
        spc = m.config.atm_steps_per_coupling
        lo = m.atm.n_steps
        for f in [f for f in pending if lo <= f.step < lo + spc]:
            pending.remove(f)
            t = np.array(m.atm.t_col, dtype=float)
            idx = np.asarray(f.pick_columns(t.shape[0], self._seed), dtype=int)
            t[idx, :] = np.nan if f.kind == "nan" else 1.0e6
            m.atm.t_col = t
            self._count_injected()

    def _raise_comm(self, k: int, m) -> None:
        """Surface a scoped comm fault at member ``k``'s coupling: a
        ``transient`` fault times the member out for ``times`` consecutive
        couplings starting at ``match`` (so it defeats rollback-and-replay
        until the window passes); ``kill`` raises a rank failure."""
        for f in self._comm_pending.get(k, ()):
            lo, hi = f.match, f.match + max(1, f.times)
            if not (lo <= m.n_couplings < hi):
                continue
            self._count_injected()
            if f.kind == "kill":
                raise RankFailure(
                    f.rank, f"member {k} coupling {m.n_couplings}"
                )
            raise CommTimeoutError(None, f.rank, 0, 0.0)

    def _count_injected(self) -> None:
        self.faults_injected += 1
        self.obs.counter("ensemble.supervisor.faults_injected").inc()

    def _health_check(self, k: int, m) -> None:
        """Post-step sanity of the member's atmosphere: non-finite state
        or an unphysical |T| surfaces as :class:`PhysicsBlowupError` (a
        silent NaN would otherwise poison every later coupling and any
        checkpoint written from it)."""
        t = np.asarray(m.atm.t_col, dtype=float)
        h = np.asarray(m.atm.swe.h, dtype=float)
        if not (np.isfinite(t).all() and np.isfinite(h).all()):
            raise PhysicsBlowupError(
                k, m.n_couplings, "non-finite atmosphere state"
            )
        if float(np.abs(t).max()) > self.BLOWUP_T:
            raise PhysicsBlowupError(
                k, m.n_couplings,
                f"|T| = {float(np.abs(t).max()):.3g} K exceeds "
                f"{self.BLOWUP_T:g} K",
            )

    # -- failure handling --------------------------------------------------

    def _record(self, event: MemberEvent) -> None:
        self.events.append(event)
        self.obs.counter("ensemble.supervisor.events").inc()

    def _handle_failure(self, k: int, m, exc: BaseException, target: int) -> None:
        kind = classify_failure(exc)
        if self.policy is MemberPolicy.RESTART:
            if self.restarts_used[k] < self.restart_max:
                try:
                    self._restart_member(k, m, exc, kind, target)
                    return
                except FAULT_TYPES as replay_exc:
                    # The rollback/replay itself failed (corrupt
                    # checkpoints, a persistent fault window, ...).
                    exc, kind = replay_exc, classify_failure(replay_exc)
            self._quarantine(k, m, exc, kind, action="escalate")
            return
        self._quarantine(k, m, exc, kind, action="quarantine")

    def _restart_member(
        self, k: int, m, exc: BaseException, kind: str, target: int
    ) -> None:
        """Roll member ``k`` back to its newest valid checkpoint and
        replay it solo to the fleet clock; on return it is bitwise-equal
        to a never-faulted twin and back in lockstep."""
        attempt = self.restarts_used[k] + 1
        self.restarts_used[k] = attempt
        failed_at = m.n_couplings
        with self.obs.span(
            "ensemble.supervisor.restart",
            member=k, attempt=attempt, error=type(exc).__name__,
        ):
            runner = m._atm_runner
            m._atm_runner = None
            try:
                if self.lockstep is not None:
                    # The fleet may have advanced this member's atmosphere
                    # (and granted a credit) before the failure surfaced;
                    # the rollback invalidates both.
                    self.lockstep.clear_credits(m.atm)
                restored = m.rollback()
                replayed = target - m.n_couplings
                # The member's own loop keeps its checkpoint rotation
                # identical to a never-faulted twin's; a cadence save at
                # the target step is re-written by the fleet pass with
                # everyone else's (same-step saves replace).
                m.run_couplings(replayed)
                self._health_check(k, m)
            finally:
                m._atm_runner = runner
        self.restarts += 1
        self.replayed_total += replayed
        self.obs.counter("ensemble.supervisor.restarts").inc()
        self.obs.counter("ensemble.supervisor.replayed_couplings").inc(replayed)
        self._record(MemberEvent(
            member=k, coupling=failed_at, kind=kind,
            error=type(exc).__name__, action="restart", detail=str(exc),
            replayed_couplings=replayed, restored_from=str(restored),
        ))

    def _quarantine(
        self, k: int, m, exc: BaseException, kind: str, action: str
    ) -> None:
        """Remove member ``k`` from the fleet: survivors' batched stack
        shrinks and their trajectories continue bitwise-unchanged."""
        self.alive[k] = False
        try:
            m._wait_ocean()
        except Exception:
            pass
        m._atm_runner = None
        if self.lockstep is not None:
            self.lockstep.remove(m.atm)
        self.quarantines += 1
        self.obs.counter("ensemble.supervisor.quarantines").inc()
        if action == "escalate":
            self.escalations += 1
            self.obs.counter("ensemble.supervisor.escalations").inc()
        self.obs.gauge("ensemble.supervisor.alive").set(float(self.n_alive))
        self._record(MemberEvent(
            member=k, coupling=m.n_couplings, kind=kind,
            error=type(exc).__name__, action=action, detail=str(exc),
        ))
