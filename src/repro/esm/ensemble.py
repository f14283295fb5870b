"""Multi-instance experiment sessions: N coupled models in one process.

The production service the ROADMAP aims at runs *many* AP³ESM scenarios
per process, not one.  This module is the session layer that makes that
real:

* :class:`EnsembleConfig` — a base :class:`AP3ESMConfig` plus per-member
  config deltas and seeded initial-condition perturbations
  (``utils.rng.seeded`` under the ``("ensemble.member", seed, k)``
  namespace, so members are deterministic and mutually distinct);
* :class:`EnsembleRun` — constructs N perturbed-member :class:`AP3ESM`
  instances sharing warm infrastructure (ONE :class:`CouplerCache`, ONE
  process-pool backend, per-member ``member.<k>.*`` obs prefixes into
  one parent registry) and steps them in lockstep;
* :class:`BatchedPhysicsDriver` — the raw-speed centerpiece: all
  members' physics input columns are stacked into a SINGLE suite call
  (one CNN/MLP forward — one GEMM — serves the whole fleet), then the
  tendencies are scattered back per member.  Batched output is
  bitwise-identical to per-member inference: column independence plus
  the fixed per-row GEMM reduction order in :mod:`repro.ai.layers`;
* :class:`LockstepAtmospheres` — the credit scheme that lets each
  member's unmodified coupling loop participate: the first member's
  atmosphere run advances *every* member's atmosphere through
  ``begin_step`` → one batched compute → ``complete_step``, granting
  step credits the other members consume when their own loops arrive.

Member 0 is never perturbed, so a zero-delta member 0 is
bitwise-identical to a solo ``AP3ESM`` run — the twin the CI smoke job
checks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..resilience.faults import FaultPlan
    from ..resilience.supervisor import FleetSupervisor

from ..atm.columns import ColumnState
from ..atm.physics import ConventionalPhysics, PhysicsTendencies
from ..coupler import CouplerCache
from ..obs import NULL_OBS, Obs
from ..pp import make_backend
from ..utils.rng import seeded
from .ap3esm import AP3ESM, AP3ESMConfig

__all__ = [
    "EnsembleConfig",
    "EnsembleRun",
    "BatchedPhysicsDriver",
    "LockstepAtmospheres",
]


@dataclass
class EnsembleConfig:
    """One ensemble session: N members around a base configuration."""

    base: AP3ESMConfig = field(default_factory=AP3ESMConfig)
    members: int = 2
    #: Namespace seed for the member perturbations; the per-member stream
    #: is ``seeded("ensemble.member", perturb_seed, k)``.
    perturb_seed: int = 0
    #: Gaussian perturbation amplitude (K) applied to the atmosphere
    #: temperature columns of members k >= 1.  Member 0 is never
    #: perturbed (the bitwise solo twin).
    perturb_amplitude: float = 1e-3
    #: Stack all members' physics columns into one suite call per step.
    batch_physics: bool = False
    #: Optional per-member config overrides (``dataclasses.replace``
    #: deltas onto ``base``); shorter lists leave trailing members at the
    #: base configuration.
    config_deltas: Optional[Sequence[Dict[str, object]]] = None
    #: Optional :class:`~repro.resilience.faults.FaultPlan` whose
    #: member-scoped entries the fleet supervisor injects at each
    #: member's fault boundary (requires ``base.resilience.enabled``).
    fault_plan: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        if self.members < 1:
            raise ValueError("an ensemble needs at least one member")

    def member_config(self, k: int) -> AP3ESMConfig:
        """The k-th member's configuration (base + delta)."""
        delta: Dict[str, object] = {}
        if self.config_deltas is not None and k < len(self.config_deltas):
            delta = dict(self.config_deltas[k])
        valid = {f.name for f in dataclasses.fields(AP3ESMConfig)}
        unknown = set(delta) - valid
        if unknown:
            raise ValueError(
                f"member {k} config delta has unknown keys: {sorted(unknown)}"
            )
        return dataclasses.replace(self.base, **delta)


def _batchable_suites(suites: Sequence[object]) -> None:
    """Validate the member physics suites can share one batched call.

    Batched inference runs member 0's suite over the stacked columns, so
    every member's suite must be *equivalent*: literally the same object,
    or conventional suites with equal parameters.  Guarded suites are
    rejected — the guardrail's per-column fallback bookkeeping is
    per-member state a fleet call cannot attribute.
    """
    first = suites[0]
    for k, suite in enumerate(suites):
        if hasattr(suite, "fallback_columns_total"):
            raise ValueError(
                "batch_physics is incompatible with the physics guardrail "
                "(resilience.guard_physics): per-member fallback accounting "
                "cannot be attributed through a fleet call"
            )
        if suite is first:
            continue
        if isinstance(first, ConventionalPhysics) and isinstance(suite, ConventionalPhysics):
            if suite.params == first.params:
                continue
            raise ValueError(
                f"member {k} has different physics parameters than member 0; "
                "batched physics requires equivalent suites"
            )
        raise ValueError(
            f"member {k} physics suite differs from member 0 "
            f"({type(suite).__name__} vs {type(first).__name__}); share one "
            "suite object across members to batch"
        )


class BatchedPhysicsDriver:
    """Cross-member batched physics: one suite call serves the fleet.

    ``compute`` gathers every member's :class:`ColumnState` into a single
    stacked batch, runs ONE ``suite.compute`` (member 0's suite), and
    splits the tendencies back per member — bitwise-identical to calling
    each member's suite on its own columns, which
    :meth:`compute_sequential` does for the comparison path.
    """

    def __init__(
        self,
        suites: Sequence[object],
        batch: bool = True,
        obs: Obs | None = None,
    ) -> None:
        if not suites:
            raise ValueError("need at least one physics suite")
        if batch:
            _batchable_suites(suites)
        self.suites = list(suites)
        self.batch = batch
        self.obs = obs if obs is not None else NULL_OBS
        self.fleet_calls = 0
        self.member_calls = 0
        self.columns_total = 0

    def compute(
        self, cols: Sequence[ColumnState], dt_s: float
    ) -> List[PhysicsTendencies]:
        if self.batch:
            return self.compute_batched(cols, dt_s)
        return self.compute_sequential(cols, dt_s)

    def compute_batched(
        self, cols: Sequence[ColumnState], dt_s: float
    ) -> List[PhysicsTendencies]:
        """One stacked suite call, scattered back per member."""
        sizes = [c.ncol for c in cols]
        stacked = ColumnState.concat(cols)
        tend = self.suites[0].compute(stacked, dt_s)
        self.fleet_calls += 1
        self.columns_total += stacked.ncol
        self.obs.counter("ensemble.physics.fleet_calls").inc()
        self.obs.counter("ensemble.physics.columns").inc(stacked.ncol)
        return tend.split(sizes)

    def compute_sequential(
        self, cols: Sequence[ColumnState], dt_s: float
    ) -> List[PhysicsTendencies]:
        """Per-member suite calls (the pre-batching baseline)."""
        self.member_calls += len(cols)
        self.obs.counter("ensemble.physics.member_calls").inc(len(cols))
        return [
            suite.compute(c, dt_s) for suite, c in zip(self.suites, cols)
        ]

    def remove_member(self, i: int) -> None:
        """Dynamic membership: drop member ``i``'s suite slot (the fleet
        supervisor quarantined it).  The stacked batch simply shrinks —
        column independence keeps the survivors' results bitwise-equal to
        a batch that never contained the removed member."""
        del self.suites[i]


class LockstepAtmospheres:
    """Credit-based lockstep stepping of every member's atmosphere.

    Installed as each member's ``_atm_runner``: the first member whose
    coupling loop asks for atmosphere steps advances the WHOLE fleet —
    every atmosphere's ``begin_step`` (dynamics), one batched physics
    compute, every ``complete_step`` (apply + clock) — and grants one
    step credit per member.  The other members' loops then consume their
    credits instead of re-stepping.  Each member's atmosphere state is
    mutated only by its own begin/complete pair, so the interleaving is
    bitwise-equivalent to every member stepping alone.
    """

    def __init__(self, atms: Sequence[object], driver: BatchedPhysicsDriver) -> None:
        self._atms = list(atms)
        self._index = {id(a): i for i, a in enumerate(self._atms)}
        self._credits = [0] * len(self._atms)
        self.driver = driver
        self.dt_model = float(self._atms[0].dt_model)  # 3 600 s for every GristModel
        self.fleet_steps = 0

    def install(self, members: Sequence[AP3ESM]) -> None:
        for m in members:
            m._atm_runner = self.run

    def run(self, atm, n_steps: int) -> None:
        """The ``_atm_runner`` hook: advance ``atm`` by ``n_steps``,
        stepping the whole fleet for any step not yet credited."""
        k = self._index[id(atm)]
        for _ in range(n_steps):
            if self._credits[k] == 0:
                self._advance_fleet()
            self._credits[k] -= 1

    def _advance_fleet(self) -> None:
        cols = [a.begin_step() for a in self._atms]
        # A fleet call runs member 0's suite: it launches through member 0.
        self._atms[0].bind_physics()
        tends = self.driver.compute(cols, self.dt_model)
        for a, tend in zip(self._atms, tends):
            a.complete_step(tend)
        for i in range(len(self._credits)):
            self._credits[i] += 1
        self.fleet_steps += 1

    # -- dynamic membership (fleet supervisor) -----------------------------

    def remove(self, atm) -> None:
        """Drop ``atm`` from the lockstep fleet (quarantine): its credits
        are discarded and the batched stack shrinks with it.  Removing an
        unknown atmosphere is a no-op."""
        i = self._index.get(id(atm))
        if i is None:
            return
        del self._atms[i]
        del self._credits[i]
        self._index = {id(a): j for j, a in enumerate(self._atms)}
        self.driver.remove_member(i)

    def clear_credits(self, atm) -> None:
        """Zero ``atm``'s step credits before a checkpoint rollback: any
        fleet advance the member received this coupling is invalidated by
        the restore, and the solo replay re-earns its place."""
        i = self._index.get(id(atm))
        if i is not None:
            self._credits[i] = 0


class EnsembleRun:
    """N lockstep coupled experiments sharing warm infrastructure.

    Lifecycle mirrors :class:`AP3ESM`: ``init()`` →
    ``run_couplings(n)``/``step_coupling()`` → ``summary()`` →
    ``finalize()``.  One process pool and one coupler cache are built
    once and handed to every member; each member records observability
    under its ``member.<k>.*`` prefix in the shared parent registry.
    """

    def __init__(self, config: EnsembleConfig | None = None, obs: Obs | None = None) -> None:
        self.config = config if config is not None else EnsembleConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.members: List[AP3ESM] = []
        self._space = None
        self._owned_pool = None
        self._cache: Optional[CouplerCache] = None
        self.physics_driver: Optional[BatchedPhysicsDriver] = None
        self.lockstep: Optional[LockstepAtmospheres] = None
        #: Fleet supervisor (fault boundary + quarantine/restart); None
        #: unless resilience configures a non-default member_policy or a
        #: fault plan — the default path is byte-identical to pre-PR.
        self.supervisor: Optional["FleetSupervisor"] = None
        self.n_couplings = 0
        self._initialized = False

    # -- lifecycle ---------------------------------------------------------

    def init(self) -> None:
        cfg = self.config
        base = cfg.base
        with self.obs.span("ensemble.init", members=cfg.members):
            # Shared execution backend: ONE pool serves every member's
            # kernel launches (started before any member threads exist).
            if base.backend != "serial":
                self._space = make_backend(base.backend, base.backend_workers or None)
                self._owned_pool = getattr(self._space, "runtime", None)
                if self._owned_pool is not None:
                    self._owned_pool.obs = self.obs
                    self._owned_pool.ensure_started()
            # Shared warm coupler cache: the first member builds the
            # GSMaps/Routers, the rest hit the content-addressed table.
            if base.coupler_cache_dir is not None:
                self._cache = CouplerCache(base.coupler_cache_dir, obs=self.obs)
            # A later member's config validation or init() failing must
            # not leak the pool or the members already started.
            try:
                member_cfgs = [
                    self._scoped_config(cfg.member_config(k), k)
                    for k in range(cfg.members)
                ]
                if cfg.batch_physics:
                    self._validate_uniform(member_cfgs)
                for k, mcfg in enumerate(member_cfgs):
                    member = AP3ESM(
                        mcfg,
                        obs=self.obs.prefixed(f"member.{k}"),
                        space=self._space,
                        coupler_cache=self._cache,
                    )
                    self.members.append(member)
                    member.init()
                    self.perturb_member(k, member)
                if cfg.batch_physics:
                    self.physics_driver = BatchedPhysicsDriver(
                        [m.atm.physics for m in self.members], batch=True, obs=self.obs
                    )
                    self.lockstep = LockstepAtmospheres(
                        [m.atm for m in self.members], self.physics_driver
                    )
                    self.lockstep.install(self.members)
                self._arm_supervisor()
            except BaseException:
                self._teardown_partial()
                raise
        self._initialized = True

    def _scoped_config(self, mcfg: AP3ESMConfig, k: int) -> AP3ESMConfig:
        """Scope a member's rotating-checkpoint directory to
        ``<checkpoint_dir>/member<k>``, so N members sharing one base
        config never overwrite each other's rotations (and the fleet
        supervisor can roll each member back independently)."""
        res = mcfg.resilience
        if res.enabled and res.checkpoint_dir:
            mcfg = dataclasses.replace(
                mcfg,
                resilience=dataclasses.replace(
                    res,
                    checkpoint_dir=str(Path(res.checkpoint_dir) / f"member{k}"),
                ),
            )
        return mcfg

    def _arm_supervisor(self) -> None:
        """Build the fleet supervisor when resilience asks for one: a
        non-default ``member_policy`` or a fault plan.  The fail-fast
        default without a plan arms nothing, keeping ``step_coupling``
        byte-identical to the pre-supervisor loop."""
        cfg = self.config
        res = cfg.base.resilience
        plan = cfg.fault_plan
        if plan is not None and not res.enabled:
            raise ValueError(
                "fault_plan requires base.resilience.enabled=True (the "
                "fleet supervisor is resilience machinery)"
            )
        if not res.enabled:
            return
        if res.member_policy == "fail_fast" and plan is None:
            return
        from ..resilience.supervisor import FleetSupervisor, MemberPolicy

        self.supervisor = FleetSupervisor(
            self.members,
            MemberPolicy.parse(res.member_policy),
            restart_max=res.member_restart_max,
            lockstep=self.lockstep,
            plan=plan,
            obs=self.obs,
        )

    def _teardown_partial(self) -> None:
        """Best-effort cleanup of a failed ``init()``: finalize every
        member that completed its own init, shut down schedulers of
        half-built ones, and stop the owned pool."""
        for m in self.members:
            try:
                if getattr(m, "_initialized", False):
                    m.finalize()
                else:
                    scheduler = getattr(m, "scheduler", None)
                    if scheduler is not None:
                        scheduler.shutdown()
            except Exception:
                pass
        self.members = []
        if self._owned_pool is not None:
            try:
                self._owned_pool.shutdown()
            finally:
                self._owned_pool = None

    def _validate_uniform(self, member_cfgs: Sequence[AP3ESMConfig]) -> None:
        """Batched physics stacks columns across members, so the
        atmosphere discretizations (and coupling cadence) must match."""
        base = member_cfgs[0]
        for k, mcfg in enumerate(member_cfgs[1:], start=1):
            for key in ("atm_level", "atm_nlev", "atm_steps_per_coupling"):
                if getattr(mcfg, key) != getattr(base, key):
                    raise ValueError(
                        f"batch_physics needs a uniform atmosphere across members: "
                        f"member {k} differs in {key} "
                        f"({getattr(mcfg, key)} != {getattr(base, key)})"
                    )
            if mcfg.resilience.enabled and mcfg.resilience.guard_physics:
                raise ValueError(
                    "batch_physics is incompatible with the physics guardrail "
                    f"(member {k} has resilience.guard_physics set)"
                )
        if base.resilience.enabled and base.resilience.guard_physics:
            raise ValueError(
                "batch_physics is incompatible with the physics guardrail "
                "(member 0 has resilience.guard_physics set)"
            )

    def perturb_member(self, k: int, member: AP3ESM) -> None:
        """Seeded initial-condition perturbation for member ``k``.

        Member 0 stays untouched (the bitwise solo twin); members k >= 1
        receive Gaussian noise on the atmosphere temperature columns from
        the deterministic ``("ensemble.member", perturb_seed, k)`` stream.
        """
        cfg = self.config
        if k == 0 or cfg.perturb_amplitude == 0.0:
            return
        rng = seeded("ensemble.member", cfg.perturb_seed, k)
        noise = rng.standard_normal(member.atm.t_col.shape)
        member.atm.t_col = member.atm.t_col + cfg.perturb_amplitude * noise

    def finalize(self) -> List[Dict[str, Dict[str, float]]]:
        self._check()
        out: List[Dict[str, Dict[str, float]]] = []
        first_error: Optional[BaseException] = None
        try:
            for m in self.members:
                try:
                    out.append(m.finalize())
                except BaseException as exc:  # keep finalizing the rest
                    if first_error is None:
                        first_error = exc
        finally:
            # The owned pool is process-level state: it must come down
            # even when a member's finalize raised.
            if self._owned_pool is not None:
                self._owned_pool.shutdown()
        if first_error is not None:
            raise first_error
        return out

    def pool_stats(self):
        """Stats of the ensemble-owned process pool (``None`` when the
        backend is serial)."""
        return self._owned_pool.stats if self._owned_pool is not None else None

    # -- stepping ----------------------------------------------------------

    def step_coupling(self) -> None:
        """One coupling interval for every member, in lockstep.

        Interleaving per coupling (rather than per member over the whole
        window) keeps all members' clocks aligned, which is what lets the
        batched atmosphere advance the fleet together.
        """
        self._check()
        with self.obs.span("ensemble.step", coupling=self.n_couplings):
            if self.supervisor is not None:
                self.supervisor.step_fleet()
            else:
                for m in self.members:
                    m.step_coupling()
        self.n_couplings += 1

    def run_couplings(self, n: int) -> None:
        for _ in range(n):
            self.step_coupling()
        for m in self.members:
            m._wait_ocean()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Ensemble roll-up: per-member + spread/mean/min-max SYPD, the
        cross-member surface-temperature spread, the batched-physics
        call accounting, and (when the fleet supervisor is armed) the
        degraded-fleet section.  SYPD aggregates and the spread cover
        the *surviving* members; quarantined rows stay listed with
        ``alive = 0``.  Emits ``ensemble.*`` gauges."""
        self._check()
        sup = self.supervisor
        live = self._live() or list(enumerate(self.members))
        simulated_days = live[0][1].clock.time / 86400.0
        sypds: List[float] = []
        per_member: List[Dict[str, float]] = []
        for k, m in enumerate(self.members):
            # The member's own clock over its own wall: a member
            # quarantined early is not credited the survivors' couplings.
            sypd = m.sypd()
            row = {
                "member": float(k),
                "sypd": sypd,
                "wall_s": m.wall_s,
                "couplings": float(m.n_couplings),
            }
            if sup is not None:
                row["alive"] = 1.0 if sup.alive[k] else 0.0
            per_member.append(row)
            if sup is None or sup.alive[k]:
                sypds.append(sypd)
        t_bot = np.stack([m.atm.t_col[:, -1] for _, m in live])
        spread_t = float(t_bot.std(axis=0).mean()) if len(live) > 1 else 0.0
        out: Dict[str, object] = {
            "members": per_member,
            "simulated_days": simulated_days,
            "sypd": {
                "mean": float(np.mean(sypds)),
                "min": float(np.min(sypds)),
                "max": float(np.max(sypds)),
                "spread": float(np.max(sypds) - np.min(sypds)),
            },
            "spread": {"t_bot": spread_t},
        }
        if self.physics_driver is not None:
            out["batched_physics"] = {
                "fleet_calls": self.physics_driver.fleet_calls,
                "columns_total": self.physics_driver.columns_total,
                "fleet_steps": self.lockstep.fleet_steps if self.lockstep else 0,
            }
        if sup is not None:
            # Degraded-fleet roll-up: effective ensemble size and the
            # fleet throughput scaled by the surviving fraction.
            out["supervisor"] = {
                "policy": sup.policy.value,
                "members_total": float(len(self.members)),
                "alive": float(sup.n_alive),
                "effective_size": float(sup.n_alive),
                "quarantined": list(sup.quarantined),
                "quarantines": float(sup.quarantines),
                "restarts": float(sup.restarts),
                "escalations": float(sup.escalations),
                "replayed_couplings": float(sup.replayed_total),
                "faults_injected": float(sup.faults_injected),
                "sypd_degraded": float(np.mean(sypds))
                * sup.n_alive / len(self.members),
                "events": [dataclasses.asdict(e) for e in sup.events],
            }
            self.obs.gauge("ensemble.supervisor.alive").set(float(sup.n_alive))
            self.obs.gauge("ensemble.supervisor.sypd_degraded").set(
                out["supervisor"]["sypd_degraded"]
            )
        self.obs.gauge("ensemble.sypd.mean").set(out["sypd"]["mean"])
        self.obs.gauge("ensemble.sypd.min").set(out["sypd"]["min"])
        self.obs.gauge("ensemble.sypd.max").set(out["sypd"]["max"])
        self.obs.gauge("ensemble.spread.t_bot").set(spread_t)
        return out

    # -- fleet-coherent checkpoints (scenario service) ---------------------

    def _live(self) -> List[Tuple[int, AP3ESM]]:
        """``(k, member)`` for every member the supervisor has not
        quarantined (all of them when none is armed): the fleet that
        checkpoints and recovers.  Quarantined members are left as they are."""
        if self.supervisor is None:
            return list(enumerate(self.members))
        return self.supervisor.alive_members()

    def checkpoint(self) -> List[Path]:
        """Write one rotating checkpoint per live member, all at the
        current fleet coupling (requires ``base.resilience.checkpoint_*``
        — the per-member rotations live under ``<dir>/member<k>`` via
        :meth:`_scoped_config`).  Returns the published paths."""
        self._check()
        return [m.checkpoint() for _, m in self._live()]

    def has_checkpoint(self) -> bool:
        """True when EVERY live member's rotation holds at least one
        published checkpoint (the cheap "can we resume?" probe)."""
        self._check()
        return all(m.has_checkpoint() for _, m in self._live())

    def recover(self) -> int:
        """Fleet-coherent restore: every live member rolls back to the
        newest coupling for which ALL live members hold a *valid*
        checkpoint, so the restored fleet is clock-aligned (members
        checkpoint at one cadence, so a common step always exists while
        any rotation is non-empty).  Newer checkpoints belong to the
        abandoned timeline and are dropped, and the supervisor's clock is
        set back, so a later member rollback lands on the fleet's step.
        Lockstep credits are cleared — any fleet advance a member received
        this coupling is invalidated by the restore.  Returns the coupling
        restored to."""
        from ..resilience.errors import CheckpointError

        self._check()
        live = [m for _, m in self._live()]
        if any(m.checkpoints is None for m in live):
            raise RuntimeError(
                "ensemble recovery needs per-member checkpoints "
                "(set base.resilience.checkpoint_*)"
            )
        valid = [m.checkpoints.valid_steps() for m in live]
        common = set.intersection(*map(set, valid)) if valid else set()
        if not common:
            raise CheckpointError(
                "no coupling step has a valid checkpoint in every member",
                reason=f"{len(live)} member rotation(s) share no step",
            )
        step = max(common)
        for m, steps in zip(live, valid):
            m._wait_ocean()
            m.load_restart(steps[step])
            m.checkpoints.drop_newer_than(step)
            if self.lockstep is not None:
                self.lockstep.clear_credits(m.atm)
        self.n_couplings = step
        if self.supervisor is not None:
            self.supervisor.couplings = step
        self.obs.counter("resilience.restores").inc()
        self.obs.gauge("ensemble.recovered_to").set(float(step))
        return step

    # -- restart I/O -------------------------------------------------------

    def save_restart(self, directory) -> None:
        """Write each member's full coupled restart under
        ``<directory>/member<k>/``."""
        self._check()
        base = Path(directory)
        for k, m in enumerate(self.members):
            m.save_restart(base / f"member{k}")

    def _check(self) -> None:
        if not self._initialized:
            raise RuntimeError("ensemble not initialized (call init())")
