"""Elastic rank-failure recovery: revoke, shrink (or promote a spare),
re-decompose, restore, replay.

The ULFM-style loop the 40M-core campaigns need (Duan et al.): a rank
death detected by the runtime must not end the run.  The pieces:

* :class:`RecoveryPolicy` — ``abort`` (pre-elastic behavior, the
  default), ``shrink`` (survivors absorb the dead ranks' cells and
  continue degraded), ``spare`` (a pre-allocated idle rank takes the
  dead slot; the decomposition is unchanged, so the continuation is
  bitwise-identical to a fault-free twin);
* :class:`ElasticFieldRun` — the end-to-end driver over a 1-D ring
  field: per-epoch checkpoints (per-rank subfiles via
  :class:`~repro.resilience.checkpoint.CheckpointManager`), kill
  detection via :meth:`~repro.parallel.SimWorld.run_elastic`, communicator
  repair via :meth:`~repro.parallel.SimWorld.shrink` /
  :meth:`~repro.parallel.SimWorld.promote_spares`, re-decomposition via
  :func:`~repro.parallel.decomp.shrink_owners`, survivor-state migration
  via a :class:`~repro.coupler.Router` between the old and repaired
  GSMaps, dead-shard restore through
  :func:`~repro.grids.remap.index_remap`, and deterministic replay from
  the checkpoint step.

Recovery semantics (what rolls back, what survives): every rank keeps an
in-memory copy of its shard as of the last checkpoint, so on failure
survivor-held state is rolled back *in place* — no I/O, no movement
beyond what the repaired decomposition requires.  Only the dead ranks'
cells are read from the checkpoint's subfiles.  All ranks then replay the
steps since the checkpoint; the stencil computes identical per-cell FP
operations under any decomposition, so the shrink continuation conserves
the global invariants and the spare continuation is bitwise-identical to
a run that never failed.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..coupler.gsmap import GlobalSegMap
from ..coupler.router import Router
from ..grids.remap import index_remap
from ..obs import NULL_OBS
from ..io.subfile import SubfileLayout, read_subfiles, write_subfiles
from ..parallel.comm import RankFailure, SimWorld
from ..parallel.decomp import partition_cells_contiguous, shrink_owners
from .checkpoint import CheckpointManager
from .faults import CommFaultInjector, FaultPlan

__all__ = [
    "RecoveryPolicy",
    "RecoveryEvent",
    "ElasticRunResult",
    "ElasticFieldRun",
]


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

    field: np.ndarray
    steps: int
    n_ranks: int
    owners: np.ndarray
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    mass_initial: float = 0.0
    mass_final: float = 0.0

    @property
    def mass_drift(self) -> float:
        denom = max(abs(self.mass_initial), 1e-300)
        return abs(self.mass_final - self.mass_initial) / denom

    @property
    def survived_failure(self) -> bool:
        return len(self.recoveries) > 0


def _epoch(comm, shards, owners, nu, n_steps, epoch):
    """One checkpoint epoch of flux-form diffusion on the periodic ring.

    Each rank owns a contiguous index block; per step it exchanges one
    edge value with each ring neighbor and applies
    ``f[i] += nu * (f[i+1] - 2 f[i] + f[i-1])`` — per-cell FP operations
    independent of the decomposition, which is what makes post-shrink
    replay conservative and post-spare replay bitwise.
    """
    gsize = owners.size
    mine = np.flatnonzero(owners == comm.rank)
    f = shards[comm.rank].copy()
    if mine.size == 0:
        return f
    lo, hi = int(mine[0]), int(mine[-1])
    left = int(owners[(lo - 1) % gsize])
    right = int(owners[(hi + 1) % gsize])
    for s in range(n_steps):
        # Tags separate direction and step so a fast rank one step ahead
        # cannot have its messages matched early.
        t_left, t_right = 2 * s, 2 * s + 1
        comm.send(float(f[0]), left, tag=t_left)
        comm.send(float(f[-1]), right, tag=t_right)
        halo_r = comm.recv(source=right, tag=t_left)
        halo_l = comm.recv(source=left, tag=t_right)
        ext = np.concatenate([[halo_l], f, [halo_r]])
        f = f + nu * (ext[2:] - 2.0 * ext[1:-1] + ext[:-2])
    return f


class ElasticFieldRun:
    """Kill-and-continue driver: the complete elastic-recovery loop over
    a distributed 1-D field, small enough for CI yet exercising every
    layer (comm revoke/shrink, owner re-partition, GSMap/Router rebuild,
    subfile checkpoint restore, index remap, deterministic replay).

    Parameters
    ----------
    checkpoint_dir:
        Where the rotating checkpoint sets live.
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
        gsize: int = 64,
        n_ranks: int = 4,
        steps: int = 12,
        checkpoint_every: int = 4,
        nu: float = 0.05,
        policy: Union[str, RecoveryPolicy] = RecoveryPolicy.ABORT,
        faults: Optional[FaultPlan] = None,
        n_spares: int = 1,
        n_io_groups: int = 2,
        obs=None,
        timeout: float = 15.0,
        perf_estimate: Optional[Callable[[int], Dict[str, float]]] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if gsize < n_ranks:
            raise ValueError("need at least one cell per rank")
        self.checkpoint_dir = Path(checkpoint_dir)
        self.gsize = gsize
        self.n_ranks = n_ranks
        self.steps = steps
        self.checkpoint_every = checkpoint_every
        self.nu = nu
        self.policy = RecoveryPolicy.parse(policy)
        self.faults = faults
        self.n_spares = n_spares
        self.n_io_groups = n_io_groups
        self.obs = obs if obs is not None else NULL_OBS
        self.timeout = timeout
        self.perf_estimate = perf_estimate

    # -- checkpoint I/O ----------------------------------------------------

    def _saver(self, owners: np.ndarray, shards: List[np.ndarray], step: int):
        layout = SubfileLayout(
            len(shards), min(self.n_io_groups, len(shards))
        )

        def save(directory: Path) -> None:
            slices = []
            for r, shard in enumerate(shards):
                mine = np.flatnonzero(owners == r)
                start = int(mine[0]) if mine.size else 0
                slices.append((start, np.asarray(shard, dtype=np.float64)))
            write_subfiles(directory, "field", layout, slices, obs=self.obs)
            meta = {
                "step": int(step),
                "n_ranks": len(shards),
                "n_groups": layout.n_groups,
                "owners": [int(o) for o in owners],
            }
            (Path(directory) / "meta.json").write_text(json.dumps(meta))

        return save

    def _restore_global(self, manager: CheckpointManager) -> Dict[str, Any]:
        """Read the newest valid checkpoint set back into a global field
        (walking past corrupt sets, counting fallbacks/restores)."""
        restored: Dict[str, Any] = {}

        def load(path: Path) -> None:
            meta = json.loads((Path(path) / "meta.json").read_text())
            layout = SubfileLayout(meta["n_ranks"], meta["n_groups"])
            restored["field"] = read_subfiles(
                path, "field", layout, self.gsize, obs=self.obs
            )
            restored["step"] = int(meta["step"])
            restored["owners"] = np.asarray(meta["owners"], dtype=np.int64)

        manager.restore_latest_valid(load)
        return restored

    # -- recovery ----------------------------------------------------------

    def _recover(
        self,
        world: SimWorld,
        dead: Tuple[int, ...],
        owners: np.ndarray,
        ckpt_shards: List[np.ndarray],
        manager: CheckpointManager,
        ckpt_step: int,
        failed_epoch_steps: int,
    ) -> Tuple[SimWorld, np.ndarray, List[np.ndarray], RecoveryEvent]:
        """Repair the world, re-decompose, restore the lost shard, and
        roll survivors back to their in-memory checkpoint copies."""
        restored = self._restore_global(manager)
        if restored["step"] != ckpt_step:
            raise RuntimeError(
                f"checkpoint on disk is step {restored['step']}, driver "
                f"expected step {ckpt_step} — rotation and epoch disagree"
            )
        g_ckpt = restored["field"]
        dead_gidx = np.flatnonzero(np.isin(owners, list(dead)))
        dead_parents = tuple(world.parent_ranks[r] for r in dead)

        if self.policy is RecoveryPolicy.SPARE:
            new_world = world.promote_spares(dead)
            new_owners = owners.copy()
            new_shards: List[np.ndarray] = []
            for r in range(world.n_ranks):
                if r in dead:
                    mine = np.flatnonzero(owners == r)
                    new_shards.append(g_ckpt[mine].copy())
                else:
                    new_shards.append(ckpt_shards[r].copy())
            cells_migrated = 0
        else:  # SHRINK
            new_world = world.shrink(dead)
            new_owners, old_to_new = shrink_owners(
                owners, dead, n_ranks=world.n_ranks
            )
            new_gsmap = GlobalSegMap.from_owners(new_owners)
            # Survivor-held state moves (where it moves at all) through a
            # Router between the hole-masked old decomposition and the
            # repaired one — the same offline-construction path the
            # coupler uses, applied driver-side.
            masked = owners.astype(np.int64).copy()
            masked[dead_gidx] = -1
            router = Router.build(GlobalSegMap.from_owners(masked), new_gsmap)
            src_shards = {
                r: np.asarray(ckpt_shards[r], dtype=np.float64)
                for r in range(world.n_ranks)
                if r not in dead
            }
            dst_sizes = {
                q: int(np.count_nonzero(new_owners == q))
                for q in range(new_world.n_ranks)
            }
            moved = router.redistribute(src_shards, dst_sizes)
            # The dead ranks' cells are the NaN holes left by the partial
            # redistribute; fill them from the checkpoint through the
            # exact (weight-1) index remap.
            ckpt_dead_vals = g_ckpt[dead_gidx]
            new_to_old = {v: k for k, v in old_to_new.items()}
            new_shards = []
            cells_migrated = 0
            for q in range(new_world.n_ranks):
                shard = moved[q]
                dst_gidx = np.flatnonzero(new_owners == q)
                holes = np.flatnonzero(np.isnan(shard))
                if holes.size:
                    sel = index_remap(dead_gidx, dst_gidx[holes])
                    shard[holes] = sel @ ckpt_dead_vals
                old_owner_here = owners[dst_gidx]
                cells_migrated += int(np.count_nonzero(
                    (old_owner_here != new_to_old[q])
                    & ~np.isin(old_owner_here, list(dead))
                ))
                new_shards.append(shard)

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
        return new_world, new_owners, new_shards, event

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
        owners = partition_cells_contiguous(self.gsize, self.n_ranks).astype(
            np.int64
        )
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

        x = np.arange(self.gsize, dtype=np.float64)
        f0 = 1.0 + 0.5 * np.sin(2.0 * np.pi * x / self.gsize)
        shards = [f0[np.flatnonzero(owners == r)].copy() for r in range(self.n_ranks)]
        mass0 = float(sum(s.sum() for s in shards))
        recoveries: List[RecoveryEvent] = []

        step = 0
        while step < self.steps:
            n_do = min(self.checkpoint_every, self.steps - step)
            ckpt_step = step
            ckpt_shards = [s.copy() for s in shards]
            manager.to_file(self._saver(owners, shards, step), step)
            outcome = world.run_elastic(
                _epoch, shards, owners, self.nu, n_do, step // self.checkpoint_every
            )
            if not outcome.failed:
                shards = list(outcome.results)
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
                world, owners, shards, event = self._recover(
                    world, outcome.dead, owners, ckpt_shards,
                    manager, ckpt_step, n_do,
                )
            recoveries.append(event)
            step = ckpt_step  # deterministic replay of the failed epoch

        final = np.empty(self.gsize, dtype=np.float64)
        for r in range(world.n_ranks):
            final[np.flatnonzero(owners == r)] = shards[r]
        return ElasticRunResult(
            field=final,
            steps=self.steps,
            n_ranks=world.n_ranks,
            owners=owners,
            recoveries=recoveries,
            mass_initial=mass0,
            mass_final=float(final.sum()),
        )
