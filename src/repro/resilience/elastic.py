"""Elastic rank-failure recovery: revoke, shrink (or promote a spare),
re-decompose, restore, replay.

The ULFM-style loop the 40M-core campaigns need (Duan et al.): a rank
death detected by the runtime must not end the run.  The pieces:

* :class:`RecoveryPolicy` — ``abort`` (pre-elastic behavior, the
  default), ``shrink`` (the survivors are re-cut into even slabs and
  continue degraded), ``spare`` (a pre-allocated idle rank takes the
  dead slot; the decomposition is unchanged);
* :class:`ElasticFieldRun` — the end-to-end driver over the model's own
  distributed barotropic ocean: the one rank program
  :func:`~repro.ocn.parallel_run.barotropic_rank` on latitude slabs, one
  :meth:`~repro.parallel.SimWorld.run_elastic` per checkpoint epoch,
  checkpoints through :func:`~repro.io.restart.save_restart` /
  :func:`~repro.io.restart.load_restart` under a rotating
  :class:`~repro.resilience.checkpoint.CheckpointManager`, communicator
  repair via :meth:`~repro.parallel.SimWorld.shrink` /
  :meth:`~repro.parallel.SimWorld.promote_spares`, survivor-state
  migration via a :class:`~repro.coupler.Router` between the old and the
  re-cut GSMaps, dead-slab restore through
  :func:`~repro.grids.remap.index_remap`, and deterministic replay from
  the checkpoint step.

Recovery semantics (what rolls back, what survives): every rank keeps an
in-memory copy of its slab as of the last checkpoint, so on failure
survivor-held state is rolled back *in place* — no I/O, no movement
beyond what the repaired decomposition requires.  Only the dead ranks'
cells are read from the checkpoint.  All ranks then replay the steps
since the checkpoint.  The distributed solver is bitwise equal to the
serial one under any slab cut, so both the shrink and the spare
continuation end byte-identical to the serial
:class:`~repro.ocn.barotropic.BarotropicSolver` from the same initial
state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..coupler.gsmap import GlobalSegMap
from ..coupler.router import Router
from ..grids.remap import index_remap
from ..grids.tripolar import TripolarGrid
from ..io.restart import load_restart, save_restart
from ..obs import NULL_OBS
from ..ocn.barotropic import BarotropicSolver, BarotropicState
from ..ocn.metrics import CGridMetrics
from ..ocn.parallel_run import PAD, barotropic_rank
from ..parallel.comm import RankFailure, SimWorld
from ..parallel.decomp import block_ranges
from .checkpoint import CheckpointManager
from .faults import CommFaultInjector, FaultPlan

__all__ = [
    "RecoveryPolicy",
    "RecoveryEvent",
    "ElasticRunResult",
    "ElasticFieldRun",
]

FIELDS = ("eta", "u", "v")


class RecoveryPolicy(str, enum.Enum):
    """What the driver does when a rank dies mid-run."""

    ABORT = "abort"    #: surface the failure (pre-elastic behavior)
    SHRINK = "shrink"  #: survivors absorb the lost cells, continue degraded
    SPARE = "spare"    #: a pre-allocated idle rank takes the slot, bitwise

    @classmethod
    def parse(cls, value: Union[str, "RecoveryPolicy"]) -> "RecoveryPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown recovery policy {value!r}; "
                f"choose from {[p.value for p in cls]}"
            ) from None


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed recovery: who died, what rolled back, what it costs."""

    policy: str
    dead: Tuple[int, ...]           #: failed slots, numbering before repair
    dead_parents: Tuple[int, ...]   #: identities in the original world
    replay_from_step: int           #: checkpoint step the run resumed at
    replayed_steps: int             #: steps re-executed because of the death
    n_ranks_before: int
    n_ranks_after: int
    cells_restored: int             #: cells read back from the checkpoint
    cells_migrated: int             #: survivor cells moved to a new owner
    sypd_degraded: Optional[float] = None
    slowdown: Optional[float] = None


@dataclass
class ElasticRunResult:
    """Final state of an elastic run."""

    state: BarotropicState
    steps: int
    n_ranks: int
    recoveries: List[RecoveryEvent] = field(default_factory=list)

    @property
    def survived_failure(self) -> bool:
        return len(self.recoveries) > 0


def _slabs(stacked: np.ndarray, n: int) -> List[np.ndarray]:
    """``(3, nlat, nlon)`` state cut into ``n`` latitude slabs, the
    interiors of ``Block2D(nlat, nlon, n, 1, r)``."""
    return [stacked[:, lo:hi].copy() for lo, hi in block_ranges(stacked.shape[1], n)]


def _slab_owners(nlat: int, nlon: int, n: int) -> np.ndarray:
    """Owner of every row-major cell under an ``n``-slab cut."""
    rows = [hi - lo for lo, hi in block_ranges(nlat, n)]
    return np.repeat(np.arange(n), np.multiply(rows, nlon))


class ElasticFieldRun:
    """Kill-and-continue driver: the complete elastic-recovery loop over
    the distributed barotropic ocean, small enough for CI yet exercising
    every layer (comm revoke/shrink, slab re-cut, GSMap/Router rebuild,
    subfile checkpoint restore, index remap, deterministic replay).

    Parameters
    ----------
    checkpoint_dir:
        Where the rotating checkpoint sets live.
    grid, initial:
        The ocean grid and its barotropic state at step 0; every epoch
        steps at the serial solver's ``max_stable_dt()``.
    policy:
        :class:`RecoveryPolicy` (or its string value).
    faults:
        Optional :class:`FaultPlan` whose ``kill`` entries exercise the
        recovery; dropped after the first repair (the dead rank's kill
        has fired; survivor numbering changes under ``shrink``).
    n_spares:
        Idle ranks pre-allocated for ``spare`` promotion.
    perf_estimate:
        Optional callable ``lost ranks ->``
        :meth:`~repro.machine.CoupledPerfModel.degraded_estimate` dict
        (e.g. :func:`repro.bench.scaling.paper_degraded_estimate`); after
        a shrink its degraded SYPD is recorded on the event and the
        ``resilience.recovery.*`` gauges.
    """

    def __init__(
        self,
        checkpoint_dir: Union[str, Path],
        grid: TripolarGrid,
        initial: BarotropicState,
        n_ranks: int = 4,
        steps: int = 12,
        checkpoint_every: int = 4,
        policy: Union[str, RecoveryPolicy] = RecoveryPolicy.ABORT,
        faults: Optional[FaultPlan] = None,
        n_spares: int = 1,
        n_io_groups: int = 2,
        obs=NULL_OBS,
        timeout: float = 15.0,
        perf_estimate: Optional[Callable[[int], Dict[str, float]]] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if grid.nlat < PAD * n_ranks:
            raise ValueError(f"need at least {PAD} latitude rows per rank")
        self.checkpoint_dir = Path(checkpoint_dir)
        self.grid = grid
        self.initial = initial
        self.metrics = CGridMetrics.build(grid)
        self.dt = BarotropicSolver(self.metrics, grid.depth).max_stable_dt()
        self.n_ranks = n_ranks
        self.steps = steps
        self.checkpoint_every = checkpoint_every
        self.policy = RecoveryPolicy.parse(policy)
        self.faults = faults
        self.n_spares = n_spares
        self.n_io_groups = n_io_groups
        self.obs = obs
        self.timeout = timeout
        self.perf_estimate = perf_estimate

    # -- recovery ----------------------------------------------------------

    def _recover(
        self,
        world: SimWorld,
        dead: Tuple[int, ...],
        ckpt_shards: List[np.ndarray],
        manager: CheckpointManager,
        ckpt_step: int,
        failed_epoch_steps: int,
    ) -> Tuple[SimWorld, List[np.ndarray], RecoveryEvent]:
        """Repair the world, re-cut the slabs, restore the lost cells, and
        roll survivors back to their in-memory checkpoint copies."""
        loaded: List[Dict[str, np.ndarray]] = []
        path = manager.restore_latest_valid(
            lambda d: loaded.append(load_restart(d)[0])
        )
        if manager.step_of(path) != ckpt_step:
            raise RuntimeError(
                f"checkpoint on disk is step {manager.step_of(path)}, driver "
                f"expected step {ckpt_step} — rotation and epoch disagree"
            )
        g_ckpt = np.stack([loaded[-1][name] for name in FIELDS])
        nlat, nlon = g_ckpt.shape[1:]
        owners = _slab_owners(nlat, nlon, world.n_ranks)
        dead_gidx = np.flatnonzero(np.isin(owners, dead))
        dead_parents = tuple(world.parent_ranks[r] for r in dead)

        if self.policy is RecoveryPolicy.SPARE:
            new_world = world.promote_spares(dead)
            restored = _slabs(g_ckpt, world.n_ranks)
            new_shards = [
                restored[r] if r in dead else ckpt_shards[r]
                for r in range(world.n_ranks)
            ]
            cells_migrated = 0
        else:  # SHRINK
            new_world = world.shrink(dead)
            survivors = [r for r in range(world.n_ranks) if r not in dead]
            new_owners = _slab_owners(nlat, nlon, new_world.n_ranks)
            # Survivor-held state moves through a Router between the
            # hole-masked old slabs and the re-cut ones — the same
            # offline-construction path the coupler uses, applied
            # driver-side, one field at a time.
            masked = owners.copy()
            masked[dead_gidx] = -1
            router = Router.build(
                GlobalSegMap.from_owners(masked),
                GlobalSegMap.from_owners(new_owners),
            )
            dst_sizes = {
                q: int(np.count_nonzero(new_owners == q))
                for q in range(new_world.n_ranks)
            }
            moved = [
                router.redistribute(
                    {r: ckpt_shards[r][k].ravel() for r in survivors}, dst_sizes
                )
                for k in range(len(FIELDS))
            ]
            # The dead ranks' cells are the holes the partial
            # redistribute left; fill them from the checkpoint through the
            # exact (weight-1) index remap.
            ckpt_dead = g_ckpt.reshape(len(FIELDS), -1)[:, dead_gidx]
            new_shards = []
            cells_migrated = 0
            for q in range(new_world.n_ranks):
                dst_gidx = np.flatnonzero(new_owners == q)
                shard = np.stack([m[q] for m in moved])
                was = owners[dst_gidx]
                holes = np.isin(was, dead)
                sel = index_remap(dead_gidx, dst_gidx[holes])
                shard[:, holes] = (sel @ ckpt_dead.T).T
                cells_migrated += int(np.count_nonzero(
                    (was != survivors[q]) & ~holes
                ))
                new_shards.append(shard.reshape(len(FIELDS), -1, nlon))

        event = RecoveryEvent(
            policy=self.policy.value,
            dead=tuple(sorted(dead)),
            dead_parents=dead_parents,
            replay_from_step=ckpt_step,
            replayed_steps=failed_epoch_steps,
            n_ranks_before=world.n_ranks,
            n_ranks_after=new_world.n_ranks,
            cells_restored=int(dead_gidx.size),
            cells_migrated=cells_migrated,
            **self._degraded_sypd(len(dead)),
        )
        self.obs.counter("resilience.recoveries").inc()
        self.obs.counter("resilience.ranks_lost").inc(len(dead))
        self.obs.counter("resilience.replayed_steps").inc(failed_epoch_steps)
        self.obs.gauge("resilience.recovery.n_ranks").set(new_world.n_ranks)
        if event.sypd_degraded is not None:
            self.obs.gauge("resilience.recovery.sypd_degraded").set(
                event.sypd_degraded
            )
            self.obs.gauge("resilience.recovery.slowdown").set(event.slowdown)
        return new_world, new_shards, event

    def _degraded_sypd(self, n_lost: int) -> Dict[str, Optional[float]]:
        if self.perf_estimate is None or self.policy is RecoveryPolicy.SPARE:
            # Spare promotion keeps the proc count: no degradation.
            return {"sypd_degraded": None, "slowdown": None}
        est = self.perf_estimate(n_lost)
        return {
            "sypd_degraded": est["sypd_degraded"],
            "slowdown": est["slowdown"],
        }

    # -- the run -----------------------------------------------------------

    def run(self) -> ElasticRunResult:
        injector = (
            CommFaultInjector(self.faults, obs=self.obs)
            if self.faults is not None and self.faults.comm
            else None
        )
        world = SimWorld(
            self.n_ranks,
            timeout=self.timeout,
            faults=injector,
            n_spares=self.n_spares if self.policy is RecoveryPolicy.SPARE else 0,
        )
        manager = CheckpointManager(self.checkpoint_dir, keep=3, obs=self.obs)
        start = self.initial
        shards = _slabs(np.stack([start.eta, start.u, start.v]), self.n_ranks)
        recoveries: List[RecoveryEvent] = []

        step = 0
        while step < self.steps:
            n_do = min(self.checkpoint_every, self.steps - step)
            ckpt_step, ckpt_shards = step, shards
            n = len(shards)
            fields = dict(zip(FIELDS, np.concatenate(shards, axis=1)))
            manager.to_file(
                lambda d: save_restart(
                    d, fields, n_ranks=n, n_groups=min(self.n_io_groups, n)
                ),
                step,
            )
            outcome = world.run_elastic(
                barotropic_rank, self.grid, self.metrics, (n, 1), shards,
                n_do, self.dt, obs=self.obs,
            )
            if not outcome.failed:
                shards = [interior for interior, _ in outcome.results]
                step += n_do
                continue
            if self.policy is RecoveryPolicy.ABORT:
                raise RankFailure(
                    outcome.dead[0],
                    f"elastic run at step {step} (policy=abort)",
                )
            with self.obs.span(
                "resilience.recovery",
                policy=self.policy.value,
                dead=list(outcome.dead),
                step=step,
            ):
                world, shards, event = self._recover(
                    world, outcome.dead, ckpt_shards, manager, ckpt_step, n_do,
                )
            recoveries.append(event)
            step = ckpt_step  # deterministic replay of the failed epoch

        return ElasticRunResult(
            state=BarotropicState(*np.concatenate(shards, axis=1)),
            steps=self.steps,
            n_ranks=world.n_ranks,
            recoveries=recoveries,
        )
