"""Chaos harness: prove a coupled run survives an injected fault plan.

``run_chaos`` executes a :class:`~repro.resilience.faults.FaultPlan`
end to end; each stage runs only when the plan holds its faults:

* **comm** — the plan's comm faults through a 4-rank p2p
  :class:`~repro.coupler.Rearranger` with the configured retry budget:
  transient faults must be *masked* (each rank's payload equals a
  fault-free twin's); drops, kills and corruption must surface as
  structured errors or an unmasked difference — never as a hang;
* **kill** — the elastic loop
  (:class:`~repro.resilience.elastic.ElasticFieldRun`) over the
  configuration's barotropic ocean under ``shrink`` and ``spare``: the
  kill must fire and be recovered, and both continuations must end equal
  to the serial solver;
* **ensemble** (member-scoped faults) — both
  :class:`~repro.resilience.supervisor.FleetSupervisor` modes against
  never-faulted twin fleets: quarantine survivors and restarted members;
* **service** (``worker_kill`` faults) — the :mod:`repro.serve` job
  service killed between EVERY pair of journal records and restarted:
  restart sets equal to an uninterrupted twin's, one completed record
  per job;
* **crash + twin** — run to ``crash_at_coupling``, damage checkpoints
  per the plan, recover a *fresh* model from the newest valid set and
  resume; a no-crash twin with the same step-keyed physics faults runs
  straight through and the two must end equal, because replayed steps
  re-inject identically and recovery restores exact state.

"Equal" is one check, :func:`repro.esm.twin.first_difference` (of
snapshots, ``eta`` / ``u`` / ``v``, payloads or restart-file bytes):
same dtype, shape and bytes, so ``±0.0`` differ and equal NaNs match.
The report totals every nonzero ``resilience.*``,
``ensemble.supervisor.*`` and ``serve.*`` counter so an experiment where
nothing was actually injected (or nothing actually recovered) is
visible, not silently green.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..esm.twin import first_difference, snapshot
from ..obs import NULL_OBS, Obs
from ..obs.export import counter_totals
from ..utils.rng import seeded
from .faults import (
    CommFaultInjector,
    FaultPlan,
    PhysicsFaultInjector,
    corrupt_checkpoint,
)

__all__ = ["ChaosReport", "run_chaos", "default_chaos_config"]

@dataclass
class ChaosReport:
    """What a chaos run did and whether the faults were masked."""

    plan_faults: int
    couplings: int
    crash_at: Optional[int] = None
    recovered_from: Optional[str] = None
    comm_masked: Optional[bool] = None
    comm_error: Optional[str] = None
    bitwise_identical: Optional[bool] = None
    kill_ranks: Optional[int] = None
    shrink_recovered: Optional[bool] = None
    shrink_ranks_after: Optional[int] = None
    shrink_bitwise_identical: Optional[bool] = None
    shrink_sypd_degraded: Optional[float] = None
    spare_bitwise_identical: Optional[bool] = None
    ensemble_members: Optional[int] = None
    ensemble_quarantined: Optional[List[int]] = None
    ensemble_quarantine_bitwise: Optional[bool] = None
    ensemble_restart_bitwise: Optional[bool] = None
    service_jobs: Optional[int] = None
    service_journal_records: Optional[int] = None
    service_crash_points: Optional[int] = None
    service_bitwise: Optional[bool] = None
    service_exactly_once: Optional[bool] = None
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        """The run completed every coupling it was asked for (a surfaced
        comm error is still surviving — it is structured, not a hang), a
        planned kill fired and the shrink recovered from it, the shrink
        and spare continuations matched the serial ocean bit for bit, and
        both ensemble-supervisor modes kept their bitwise contracts."""
        return (
            self.bitwise_identical is not False
            and self.shrink_recovered is not False
            and self.shrink_bitwise_identical is not False
            and self.spare_bitwise_identical is not False
            and self.ensemble_quarantine_bitwise is not False
            and self.ensemble_restart_bitwise is not False
            and self.service_bitwise is not False
            and self.service_exactly_once is not False
        )

    def summary(self) -> str:
        lines = [
            f"chaos: {self.plan_faults} planned fault(s), "
            f"{self.couplings} coupling(s)",
        ]
        if self.comm_masked is not None:
            lines.append(f"  comm stage masked: {self.comm_masked}")
        if self.comm_error is not None:
            lines.append(f"  comm stage surfaced: {self.comm_error}")
        if self.crash_at is not None:
            lines.append(
                f"  crashed at coupling {self.crash_at}, "
                f"recovered from {self.recovered_from}"
            )
        if self.bitwise_identical is not None:
            lines.append(
                f"  bitwise identical to fault-free twin: "
                f"{self.bitwise_identical}"
            )
        if self.kill_ranks is not None:
            lines.append(
                f"  kill stage: {self.kill_ranks} rank(s) killed; "
                f"shrink recovered: {self.shrink_recovered} "
                f"(to {self.shrink_ranks_after} rank(s), "
                f"bitwise identical: {self.shrink_bitwise_identical}); "
                f"spare bitwise identical: {self.spare_bitwise_identical}"
            )
            if self.shrink_sypd_degraded is not None:
                lines.append(
                    f"  degraded-mode SYPD estimate: "
                    f"{self.shrink_sypd_degraded:.3g}"
                )
        if self.ensemble_members is not None:
            lines.append(
                f"  ensemble stage ({self.ensemble_members} member(s)): "
                f"quarantined {self.ensemble_quarantined}; "
                f"survivors bitwise identical: "
                f"{self.ensemble_quarantine_bitwise}; "
                f"restart rejoin bitwise identical: "
                f"{self.ensemble_restart_bitwise}"
            )
        if self.service_jobs is not None:
            lines.append(
                f"  service stage ({self.service_jobs} job(s), "
                f"{self.service_journal_records} journal record(s)): "
                f"killed at {self.service_crash_points} inter-record "
                f"instant(s); completed restarts bitwise identical: "
                f"{self.service_bitwise}; every job completed exactly "
                f"once: {self.service_exactly_once}"
            )
        for name, value in sorted(self.counters.items()):
            lines.append(f"  {name} = {value:g}")
        return "\n".join(lines)


def default_chaos_config(checkpoint_dir=None, checkpoint_every: int = 2):
    """A laptop-scale coupled configuration with resilience armed —
    the configuration the CLI chaos path and the smoke test run."""
    from ..esm import AP3ESMConfig
    from .config import ResilienceConfig

    resilience = ResilienceConfig(
        enabled=True,
        checkpoint_every=checkpoint_every if checkpoint_dir else 0,
        checkpoint_dir=checkpoint_dir,
    )
    return AP3ESMConfig(resilience=resilience)


# -- stage 1: comm faults through the rearranger ---------------------------

#: The comm stage's rearranger re-posts a failed send up to this many
#: times, with no backoff (the simulated runtime needs no real waiting).
COMM_RETRIES = 3
#: Per-receive timeout surfacing a dead peer as ``CommTimeoutError``.
COMM_RECV_TIMEOUT_S = 5.0


def _comm_stage(plan: FaultPlan, obs: Obs, report: ChaosReport) -> None:
    from ..coupler import AttrVect, GlobalSegMap, Rearranger, Router
    from ..parallel.comm import SimWorld

    n_ranks, per_rank = 4, 8
    gsize = n_ranks * per_rank
    # Block source vs reversed-block destination: every rank exchanges
    # with its mirror, so each (src, dst) edge in a plan is exercised.
    src = GlobalSegMap.from_owners(np.repeat(np.arange(n_ranks), per_rank))
    dst = GlobalSegMap.from_owners(np.repeat(np.arange(n_ranks)[::-1], per_rank))
    router = Router.build(src, dst)
    gfield = np.arange(float(gsize))

    def transfer(injector, obs_handle) -> List[np.ndarray]:
        rearranger = Rearranger(
            router,
            method="p2p",
            max_retries=COMM_RETRIES,
            recv_timeout=COMM_RECV_TIMEOUT_S,
        )
        world = SimWorld(n_ranks, timeout=2 * COMM_RECV_TIMEOUT_S, faults=injector)

        def rank_program(comm):
            av = AttrVect.from_dict({"f": gfield[src.local_indices(comm.rank)]})
            out = rearranger.rearrange(
                comm,
                av,
                len(dst.local_indices(comm.rank)),
                obs=obs_handle.fork(comm.rank) if obs_handle.enabled else obs_handle,
            )
            return out.data.copy()

        return world.run(rank_program)

    clean = transfer(None, NULL_OBS)
    try:
        faulted = transfer(CommFaultInjector(plan, obs=obs), obs)
    except RuntimeError as exc:
        # Drops and kills surface as structured errors (the point: a
        # clean diagnostic, not a hang); record and move on.
        cause = exc.__cause__ if exc.__cause__ is not None else exc
        report.comm_error = f"{type(cause).__name__}: {cause}"
        return
    report.comm_masked = first_difference(dict(enumerate(faulted)),
                                          dict(enumerate(clean))) is None


# -- stage 1b: kill-and-continue (elastic recovery) ------------------------


def _kill_stage(plan: FaultPlan, config, obs: Obs, report: ChaosReport) -> None:
    """Kill-and-continue: replay the plan's ``kill`` faults through the
    elastic recovery loop over the configuration's barotropic ocean, under
    each non-abort policy.

    The kill must fire and the shrink must recover from it; both the
    shrink (re-cut to fewer slabs) and the spare continuation must end
    bitwise-identical to the serial solver from the same seeded state.
    """
    import tempfile

    from ..bench.scaling import paper_degraded_estimate
    from ..grids.tripolar import TripolarGrid
    from ..ocn.barotropic import BarotropicSolver, BarotropicState
    from ..ocn.metrics import CGridMetrics
    from .elastic import ElasticFieldRun, RecoveryPolicy

    grid = TripolarGrid.build(
        config.ocn_nlon, config.ocn_nlat, n_levels=config.ocn_levels
    )
    metrics = CGridMetrics.build(grid)
    noise = seeded("chaos-kill", plan.seed).standard_normal(metrics.shape)
    zeros = np.zeros(metrics.shape)
    initial = BarotropicState(np.where(metrics.mask_c, 0.1 * noise, 0.0), zeros, zeros)

    def run(policy):
        with tempfile.TemporaryDirectory(prefix="chaos-kill-") as d:
            return ElasticFieldRun(
                d, grid, initial, policy=policy, faults=plan, obs=obs,
                perf_estimate=paper_degraded_estimate,
            ).run()

    shrink = run(RecoveryPolicy.SHRINK)
    solver = BarotropicSolver(metrics, grid.depth)
    serial = initial.copy()
    for _ in range(shrink.steps):
        serial = solver.step(serial, solver.max_stable_dt())

    report.kill_ranks = len({p for e in shrink.recoveries for p in e.dead_parents})
    report.shrink_recovered = shrink.survived_failure
    report.shrink_ranks_after = shrink.n_ranks
    report.shrink_bitwise_identical = (
        first_difference(vars(shrink.state), vars(serial)) is None
    )
    if shrink.recoveries and shrink.recoveries[-1].sypd_degraded is not None:
        report.shrink_sypd_degraded = shrink.recoveries[-1].sypd_degraded
    spare = run(RecoveryPolicy.SPARE)
    report.spare_bitwise_identical = (
        first_difference(vars(spare.state), vars(serial)) is None
    )


# -- stage 1c: ensemble fleet supervisor -----------------------------------


def _ensemble_stage(
    plan: FaultPlan, config, couplings: int, obs: Obs, report: ChaosReport
) -> None:
    """Prove BOTH supervisor recovery modes against the plan's
    member-scoped faults:

    * ``quarantine`` — the targeted members are removed mid-run and every
      survivor's final state is bitwise-identical to the same member of a
      fleet that never contained the faults;
    * ``restart`` — every member (including the faulted ones, rolled back
      to their rotating ``member<k>/`` checkpoints and replayed) ends
      bitwise-identical to its never-faulted twin.

    The twin fleet runs the identical configuration with no plan and the
    default ``fail_fast`` policy — i.e. the pre-supervisor code path.
    """
    import tempfile

    from ..esm import EnsembleConfig, EnsembleRun

    members = max(3, max(plan.member_targets()) + 1)
    targets = set(plan.member_targets())
    report.ensemble_members = members

    def fleet(policy, with_plan, obs_handle, ckpt_dir):
        res = dataclasses.replace(
            config.resilience,
            enabled=True,
            guard_physics=False,  # batching needs the unguarded suite
            member_policy=policy,
            checkpoint_every=2 if ckpt_dir else 0,
            checkpoint_dir=ckpt_dir,
        )
        ens = EnsembleRun(EnsembleConfig(
            base=dataclasses.replace(config, resilience=res),
            members=members,
            batch_physics=True,
            fault_plan=plan if with_plan else None,
        ), obs=obs_handle)
        ens.init()
        ens.run_couplings(couplings)
        states = [snapshot(m) for m in ens.members]
        ens.finalize()
        return ens, states

    twin, twin_states = fleet("fail_fast", False, None, None)

    quarantined, q_states = fleet("quarantine", True, obs, None)
    report.ensemble_quarantined = list(quarantined.supervisor.quarantined)
    survivors = [k for k in range(members) if quarantined.supervisor.alive[k]]
    report.ensemble_quarantine_bitwise = (
        set(report.ensemble_quarantined) == targets
        and all(first_difference(q_states[k], twin_states[k]) is None
                for k in survivors)
    )

    with tempfile.TemporaryDirectory(prefix="chaos-ensemble-") as d:
        restarted, r_states = fleet("restart", True, obs, d)
        report.ensemble_restart_bitwise = (
            all(restarted.supervisor.alive)
            and restarted.supervisor.restarts > 0
            and all(first_difference(r_states[k], twin_states[k]) is None
                    for k in range(members))
        )


# -- stage 1d: scenario-service kill sweep ---------------------------------


def _tree(root) -> Dict[str, np.ndarray]:
    """A published restart tree as ``{relative path: file bytes}``."""
    return {str(p.relative_to(root)): np.frombuffer(p.read_bytes(), np.uint8)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _service_stage(
    plan: FaultPlan, config, couplings: int, obs: Obs, report: ChaosReport
) -> None:
    """The scenario-service kill sweep: SIGKILL between EVERY pair of
    journal records, restart, and demand bitwise + exactly-once recovery.

    Three service runs anchor the sweep:

    1. a **twin** service (no faults, no crashes) publishes the
       reference restart set for every job;
    2. a **reference** service runs the plan's ``worker_kill`` faults
       straight through, measuring the journal length R (its published
       results must already match the twin — interruption recovery is
       bitwise);
    3. for every append index k < R and both instants around it
       (``after`` the k-th record hit disk, and ``before`` the next one
       does — i.e. after the inter-record work: checkpoints, publishes),
       a fresh service runs with a crash hook at that instant, is
       "killed", and a restarted service (journal replay + checkpoint
       resume + publish adoption) must drain the queue with every job's
       restart set bitwise-identical to the twin's and exactly ONE
       completed record per job in the whole journal history.
    """
    import tempfile
    from pathlib import Path

    from ..serve import JobScheduler, JobSpec, JobStore, ServeConfig, ServiceCrash
    from ..serve.journal import read_journal

    res = config.resilience
    every = res.checkpoint_every if res.checkpoint_every > 0 else 2
    specs = [
        JobSpec("job0", couplings=couplings, perturb_amplitude=1e-3),
        JobSpec("job1", couplings=couplings, perturb_seed=1,
                perturb_amplitude=1e-3),
    ]
    report.service_jobs = len(specs)
    scfg = ServeConfig(checkpoint_every=every)

    def service_life(root: Path, crash_at=None, with_faults=True,
                     count_obs=None):
        """One service process lifetime; returns (scheduler, crashed)."""
        store = JobStore(root / "store", crash_at=crash_at, obs=count_obs)
        try:
            sched = JobScheduler(
                store, config, root / "work", scfg,
                fault_plan=plan if with_faults else None, obs=count_obs,
            )
            sched.recover()
            for spec in specs:
                if spec.job_id not in store.jobs:
                    sched.submit(spec)
            sched.run_until_idle()
            return sched, False
        except ServiceCrash:
            return None, True
        finally:
            # Stand-in for kernel fd cleanup on process death: the flock
            # is released, nothing is flushed or written.
            store.close()

    with tempfile.TemporaryDirectory(prefix="chaos-serve-") as d:
        base = Path(d)
        twin_root = base / "twin"
        twin, _ = service_life(twin_root, with_faults=False)
        twin_trees = {s.job_id: _tree(twin.runner.published_dir(s.job_id))
                      for s in specs}

        def published_bitwise(sched) -> bool:
            return all(
                first_difference(_tree(sched.runner.published_dir(s.job_id)),
                                 twin_trees[s.job_id]) is None
                for s in specs
            )

        ref_root = base / "ref"
        ref, _ = service_life(ref_root, count_obs=obs)
        records = ref.store.appends
        report.service_journal_records = records
        bitwise = published_bitwise(ref)

        crash_points = 0
        exactly_once = True
        for k in range(records):
            for phase in ("after", "before"):
                root = base / f"kill-{phase}-{k}"
                first, crashed = service_life(
                    root, crash_at=(phase, k), count_obs=obs
                )
                if crashed:
                    crash_points += 1
                    final, crashed_again = service_life(root, count_obs=obs)
                    if crashed_again:  # a restart must never re-crash
                        bitwise = False
                        continue
                else:
                    final = first
                if final.store.counts().get("completed", 0) != len(specs):
                    bitwise = False  # a job was lost
                    continue
                bitwise = bitwise and published_bitwise(final)
                # The exactly-once ledger: every decoded `completed` record
                # in file order (adoption and replay must never double one).
                done = Counter(
                    body["job_id"] for _, body in read_journal(final.store.path)
                    if body.get("event") == "state"
                    and body.get("state") == "completed"
                )
                exactly_once = exactly_once and all(
                    done[s.job_id] == 1 for s in specs
                )
        report.service_crash_points = crash_points
        report.service_bitwise = bitwise
        report.service_exactly_once = exactly_once


# -- stages 2+3: crash, recover, and the bitwise twin ----------------------


def _build_model(config, obs, plan: FaultPlan, count_obs):
    from ..esm import AP3ESM

    model = AP3ESM(config, obs=obs)
    model.init()
    if plan.physics and model.guarded_physics is not None:
        model.guarded_physics.injector = PhysicsFaultInjector(
            plan, obs=count_obs
        )
    return model

def _corrupt_planned(plan: FaultPlan, manager) -> None:
    ckpts = manager.checkpoints()
    for i, fault in enumerate(plan.checkpoints):
        if not ckpts:
            break
        victim = ckpts[fault.index % len(ckpts)]
        corrupt_checkpoint(
            victim, fault.kind,
            rng=seeded("chaos-corrupt", plan.seed, i),
        )


def _crash_stage(
    plan: FaultPlan, config, couplings: int, obs: Obs, report: ChaosReport
) -> None:
    res = config.resilience
    every = res.checkpoint_every
    crash_at = plan.crash_at_coupling
    if crash_at is None:
        # Just past the second checkpoint: corrupting the newest set
        # still leaves an older one to fall back to, with work to replay.
        crash_at = min(couplings, 2 * every + 1)
    crash_at = max(every, min(crash_at, couplings))
    report.crash_at = crash_at

    # Run to the crash point, writing checkpoints along the way, then
    # abandon the model (the "crash") and damage checkpoints per plan.
    victim = _build_model(config, obs, plan, count_obs=obs)
    victim.run_couplings(crash_at)
    victim.scheduler.shutdown()
    _corrupt_planned(plan, victim.checkpoints)

    # A fresh process: recover from the newest valid set and resume.
    survivor = _build_model(config, obs, plan, count_obs=obs)
    restored = survivor.recover()
    report.recovered_from = restored.name
    survivor.run_couplings(couplings - survivor.n_couplings)
    state = snapshot(survivor)
    survivor.scheduler.shutdown()

    # The twin never crashes (and never checkpoints — same physics
    # faults, separate directory-free config), so any divergence is the
    # recovery's fault.
    twin_config = dataclasses.replace(
        config,
        resilience=dataclasses.replace(
            res, checkpoint_every=0, checkpoint_dir=None
        ),
    )
    twin = _build_model(twin_config, None, plan, count_obs=None)
    twin.run_couplings(couplings)
    twin_state = snapshot(twin)
    twin.scheduler.shutdown()

    report.bitwise_identical = first_difference(state, twin_state) is None


def run_chaos(
    plan: FaultPlan,
    config=None,
    couplings: int = 6,
    obs: Optional[Obs] = None,
) -> ChaosReport:
    """Execute ``plan`` against a coupled run and report what happened.

    ``config`` must have ``resilience.enabled``; when it also configures
    checkpointing, the crash/recover/twin stages run (and ``couplings``
    must leave room past the first checkpoint).  ``None`` builds
    :func:`default_chaos_config` with checkpointing off — comm and
    physics faults only.
    """
    if config is None:
        config = default_chaos_config()
    res = config.resilience
    if not res.enabled:
        raise ValueError("chaos needs config.resilience.enabled=True")
    if couplings < 1:
        raise ValueError("couplings must be >= 1")
    obs = obs if obs is not None else Obs()
    report = ChaosReport(plan_faults=plan.n_faults, couplings=couplings)

    if plan.comm:
        _comm_stage(plan, obs, report)
    if any(f.kind == "kill" for f in plan.comm):
        _kill_stage(plan, config, obs, report)
    if plan.member_scoped:
        _ensemble_stage(plan, config, couplings, obs, report)
    if plan.service:
        _service_stage(plan, config, couplings, obs, report)

    # The solo crash/recover stage is skipped for service-only plans:
    # the service stage already drives (and kills) whole coupled runs.
    solo_relevant = bool(
        plan.comm or plan.physics or plan.checkpoints or not plan.service
    )
    if res.checkpoint_every > 0 and solo_relevant:
        _crash_stage(plan, config, couplings, obs, report)
    elif solo_relevant:
        model = _build_model(config, obs, plan, count_obs=obs)
        model.run_couplings(couplings)
        model.scheduler.shutdown()

    report.counters = counter_totals(
        (h.metrics for h in obs.all_ranks()),
        ("resilience.", "ensemble.supervisor.", "serve."),
    )
    return report
