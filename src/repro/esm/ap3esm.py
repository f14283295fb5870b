"""The coupled AP3ESM driver: atmosphere + ocean + sea ice + land.

Wiring follows the paper:

* the **coupler** (CPL7 primitives from :mod:`repro.coupler`) owns the
  main clock and per-component alarms; coupling frequencies keep the
  paper's §6.1 ratio — the ocean couples once per ``ocn_couple_ratio`` (=5,
  i.e. 180:36 per day) atmosphere couplings;
* **land is coupled directly** to the atmosphere (bypassing the coupler),
  receiving the AI-radiation fluxes gsw/glw per §5.2.1;
* the **sea ice** component mirrors the ocean grid;
* exchanged bundles pass through the pruned field registry, and the
  atmosphere<->ocean grid change goes through the sparse remap matrices
  (global flux fixer applied to the heat/water fluxes);
* all four components inherit :class:`repro.component.ComponentBase` (the
  :class:`~repro.component.Component` protocol's plumbing) and share ONE
  :class:`ComponentContext` (execution space, kernel launch path and
  metrics, precision policy, obs handle).

Task-domain placement (§5.1.2: domain 1 = coupler+atm+ice+lnd, domain 2 =
ocn) is executed by a :class:`repro.esm.scheduler.TaskDomainScheduler`:
serially by default, concurrently (thread pool) with
``concurrent_domains=True``.  Ocean coupling is **lagged by one coupling
period** — the export from the ocean run launched at alarm coupling *k*
is published at alarm coupling *k + ratio*, so domain 1 never reads
in-flight ocean state and the two schedules are bitwise identical.
:meth:`task_domains` exposes the layout the benchmarks feed to
:class:`repro.machine.CoupledPerfModel.from_layout`.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..atm import GristConfig, GristModel
from ..component import ComponentContext, precision_policy
from ..coupler import (
    Clock,
    CoupledExchange,
    CouplerCache,
    FieldRegistry,
    RearrangePlan,
)
from ..grids.remap import nearest_remap
from ..ice import CiceModel
from ..lnd import LandModel
from ..obs import NULL_OBS, Obs
from ..ocn import LicomConfig, LicomModel
from ..pp import ExecutionSpace, make_backend
from ..resilience.config import ResilienceConfig
from ..resilience.errors import CommRevokedError, CommTimeoutError, RankFailure, WatchdogTimeout
from ..utils.units import (
    LATENT_HEAT_VAPORIZATION,
    STEFAN_BOLTZMANN,
    sypd_from_walltime,
)
from .scheduler import PAPER_DOMAINS, TaskDomainScheduler, TaskHandle

__all__ = ["AP3ESMConfig", "AP3ESM"]

#: Rank-loss-class failures a checkpointed :meth:`AP3ESM.run_couplings`
#: rolls back from; anything else always propagates.
_RECOVERABLE = (RankFailure, CommRevokedError, CommTimeoutError, WatchdogTimeout)

KELVIN = 273.15
OCEAN_ALBEDO = 0.07
OCEAN_EMISSIVITY = 0.96

#: The driver-native coupling-field registry (§5.2.4): per path, what the
#: producing component registers vs. what this driver actually reads.
#: Registered lists mirror each component's ``export_state`` (a2x's six
#: diagnostic fields are optional — absent until the physics populates
#: them); used sets are exactly the reads in ``_domain1_unit`` /
#: ``_ocean_forcing`` / the components' ``import_state``.
_O2X_FIELDS = ("sst", "sss", "ssh", "u_surf", "v_surf", "freezing")
_O2X_USED = ("sst", "u_surf", "v_surf", "freezing")
_A2X_FIELDS = (
    "taux", "tauy", "t_bot", "q_bot", "u_bot", "v_bot",
    "gsw", "glw", "precip", "shflx", "lhflx", "cloud_fraction",
)
_A2X_USED = ("taux", "tauy", "t_bot", "gsw", "glw", "precip", "shflx", "lhflx")
_X2O_FIELDS = ("taux", "tauy", "heat_flux", "fresh_flux")
_I2X_FIELDS = ("ice_fraction", "ice_thickness", "ice_tsurf", "albedo")
_I2X_USED = ("ice_fraction", "ice_tsurf")


@dataclass
class AP3ESMConfig:
    """Laptop-scale coupled configuration (paper pairings in config.py)."""

    atm_level: int = 3
    atm_nlev: int = 30
    ocn_nlon: int = 96
    ocn_nlat: int = 64
    ocn_levels: int = 10
    atm_steps_per_coupling: int = 1
    ocn_couple_ratio: int = 5      # paper: atm 180/day vs ocn 36/day
    precision: str = "fp64"        # 'fp64' or 'mixed' (§5.2.3; mixed: fp32 AI inference and fp32 ocean)
    concurrent_domains: bool = False  # run domain 2 on its own thread
    #: Apply FieldRegistry pruning to every coupling-path handoff
    #: (§5.2.4); surviving fields stay bitwise identical.
    prune_fields: bool = False
    #: Directory for content-addressed offline GSMap/Router construction;
    #: None disables the coupler cache (and the compiled plans).
    coupler_cache_dir: Optional[str] = None
    #: Executor for every component kernel: 'serial' (default) or 'procs'
    #: — the shared-memory process pool, bitwise-identical to 'serial'.
    backend: str = "serial"
    #: Worker/lane count for the chosen backend; 0 = backend default
    #: (all host cores for 'procs').
    backend_workers: int = 0
    physics: Optional[object] = None  # a PhysicsSuite; None = conventional
    #: Resilience machinery (guardrail, checkpoints, watchdog); disabled
    #: by default — the driver then takes the pre-resilience code paths.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    @staticmethod
    def from_namelist(path) -> "AP3ESMConfig":
        """Build a configuration from a CESM-style namelist file with an
        ``&ap3esm_nml`` group (unknown variables are warned about and
        ignored, so newer namelists keep working on older drivers)."""
        from ..utils.namelist import read_namelist

        groups = read_namelist(path)
        if "ap3esm_nml" not in groups:
            raise ValueError("namelist must contain an &ap3esm_nml group")
        nml = groups["ap3esm_nml"]
        import dataclasses

        valid = {f.name for f in dataclasses.fields(AP3ESMConfig)} - {
            "physics", "resilience",
        }
        unknown = set(nml) - valid
        if unknown:
            warnings.warn(
                f"ignoring unknown ap3esm_nml variables: {sorted(unknown)}",
                stacklevel=2,
            )
        return AP3ESMConfig(**{k: v for k, v in nml.items() if k in valid})


class AP3ESM:
    """The coupled Earth system model."""

    def __init__(
        self,
        config: AP3ESMConfig | None = None,
        obs: Obs | None = None,
        space: ExecutionSpace | None = None,
        coupler_cache: Optional[CouplerCache] = None,
    ) -> None:
        self.config = config if config is not None else AP3ESMConfig()
        self.obs = obs if obs is not None else NULL_OBS
        #: Wall seconds spent inside :meth:`step_coupling` — the one clock
        #: :meth:`sypd` reads.
        self.wall_s = 0.0
        self._space = space
        #: Warm CouplerCache handed in by a session driver (EnsembleRun):
        #: all instances share one content-addressed table instead of each
        #: rebuilding the same GSMaps/Routers.
        self._shared_cache = coupler_cache
        self._owned_pool = None
        #: Ensemble hook: when set, ``_domain1_unit`` calls
        #: ``self._atm_runner(self.atm, n_steps)`` instead of
        #: ``self.atm.run(n_steps)`` — how the lockstep driver interposes
        #: cross-member batched physics without touching the schedule.
        self._atm_runner = None
        self._initialized = False

    # -- lifecycle ---------------------------------------------------------------

    def init(self) -> None:
        with self.obs.span("esm.init"):
            self._init()

    def _init(self) -> None:
        cfg = self.config
        res = cfg.resilience
        # Physics guardrail (§ resilience): wrap the suite so NaN/blow-up
        # columns fall back to the conventional parameterization instead
        # of poisoning the coupled state.  Disabled -> the suite is passed
        # through untouched and bitwise behavior is the pre-resilience one.
        physics = cfg.physics
        self.guarded_physics = None
        if res.enabled and res.guard_physics:
            from ..atm.physics import ConventionalPhysics
            from ..resilience.guardrail import GuardedPhysics

            primary = physics if physics is not None else ConventionalPhysics()
            self.guarded_physics = GuardedPhysics(primary, obs=self.obs)
            physics = self.guarded_physics
        self.atm = GristModel(
            GristConfig(level=cfg.atm_level, nlev=cfg.atm_nlev),
            physics=physics,
        )
        self.atm.init()
        if self.guarded_physics is not None:
            # Key chaos injections on the atm step counter: it is restored
            # by restart, so replay after recovery re-injects identically.
            self.guarded_physics.step_fn = lambda: self.atm.n_steps
        self.ocn = LicomModel(
            LicomConfig(nlon=cfg.ocn_nlon, nlat=cfg.ocn_nlat, n_levels=cfg.ocn_levels),
        )
        self.ocn.init()
        self.ice = CiceModel(self.ocn.grid)
        self.ice.init()

        # Remap operators between the two grids.
        ocn_xyz = self.ocn.grid.centers.reshape(-1, 3)
        ocn_area = self.ocn.grid.area.reshape(-1)
        atm_grid = self.atm.grid
        self.o2a = nearest_remap(ocn_xyz, atm_grid.xyz_cell, ocn_area, atm_grid.area_cell)
        self.a2o = nearest_remap(atm_grid.xyz_cell, ocn_xyz, atm_grid.area_cell, ocn_area)

        # Land mask on atmosphere cells from the remapped ocean mask.
        ocean_frac = self.o2a.apply(self.ocn.grid.mask.reshape(-1).astype(float))
        self.ocean_frac_atm = np.clip(ocean_frac, 0.0, 1.0)
        self.land_mask_atm = self.ocean_frac_atm < 0.5
        self.lnd = LandModel(atm_grid.n_cells, land_mask=self.land_mask_atm)
        self.lnd.init()

        # ONE shared context for all four components: execution space,
        # kernel launches + their metrics, precision policy, obs.
        # An explicit `space=` argument wins over the config backend name.
        self._owned_pool = None
        space = self._space
        if space is None and cfg.backend != "serial":
            space = make_backend(cfg.backend, cfg.backend_workers or None)
            self._owned_pool = getattr(space, "runtime", None)
        if hasattr(space, "runtime"):
            # Real process backend: bind obs so pp.procpool.* metrics land
            # in this run's registry, and fork the workers NOW — before
            # the scheduler spawns threads (forking a threaded process is
            # the classic deadlock).  A pool we don't own (an ensemble's
            # shared backend) keeps its owner's obs binding.
            if self._owned_pool is not None or space.runtime.obs is None:
                space.runtime.obs = self.obs
            space.runtime.ensure_started()
        ctx_kwargs = {"precision": precision_policy(cfg.precision), "obs": self.obs}
        if space is not None:
            ctx_kwargs["space"] = space
        self.ctx = ComponentContext(**ctx_kwargs)
        self.components = (self.atm, self.ocn, self.ice, self.lnd)
        for comp in self.components:
            comp.set_context(self.ctx)

        # Task-domain scheduler (§5.1.2).  The ocean's phase spans go to
        # the lane its unit runs on — the domain-2 fork in concurrent
        # mode, where the shared tracer stack is another thread's state.
        self.scheduler = TaskDomainScheduler(
            PAPER_DOMAINS,
            obs=self.obs,
            concurrent=cfg.concurrent_domains,
            watchdog_s=res.watchdog_s if res.enabled else None,
        )
        self.ocn.obs = self.scheduler.domain_obs("domain2")

        # Coupler clock: one tick per atmosphere coupling interval, with
        # the ocean alarm at the paper's 5:1 frequency ratio.
        self.dt_couple = cfg.atm_steps_per_coupling * self.atm.dt_model
        self.clock = Clock(dt=self.dt_couple)
        self.clock.add_alarm("cpl_ocn", interval=cfg.ocn_couple_ratio * self.dt_couple)

        # Ocean substeps per ocean coupling, with dt adjusted so the
        # coupling period is an exact multiple of the internal step (the
        # §5.1.1 clock-consistency requirement).
        period = cfg.ocn_couple_ratio * self.dt_couple
        n = max(1, math.ceil(period / self.ocn.dt_baroclinic))
        self.ocn.dt_baroclinic = period / n
        self.ocn.dt_barotropic = self.ocn.dt_baroclinic / 10.0
        self.ocn.dt_tracer = self.ocn.dt_baroclinic
        self.ocn_steps_per_coupling = n

        # Driver-native pruned coupling-field registry (§5.2.4): registered
        # lists mirror the component exports, used sets are the driver's
        # actual reads; the exchange layer applies it to every handoff.
        self.fields = FieldRegistry()
        self.fields.register("a2x", list(_A2X_FIELDS))
        self.fields.register("x2o", list(_X2O_FIELDS))
        self.fields.register("o2x", list(_O2X_FIELDS))
        self.fields.register("i2x", list(_I2X_FIELDS))
        self.fields.mark_used("a2x", list(_A2X_USED))
        self.fields.mark_used("x2o", list(_X2O_FIELDS))  # ocean reads all four
        self.fields.mark_used("o2x", list(_O2X_USED))
        self.fields.mark_used("i2x", list(_I2X_USED))
        self.exchange = CoupledExchange(
            self.fields, prune=cfg.prune_fields, obs=self.obs
        )

        # Offline coupler construction (content-addressed GSMap/Router
        # cache + compiled rearrange plans); disabled unless a cache
        # directory is configured.
        self.coupler_cache: Optional[CouplerCache] = None
        self.plans: Dict[str, RearrangePlan] = {}
        if cfg.coupler_cache_dir is not None or self._shared_cache is not None:
            self._init_coupler_tables()

        # Lagged ocean coupling state: the published export domain 1
        # reads, plus the join handle of the not-yet-published run.
        self._o2x = self.exchange.transfer("o2x", self.ocn.export_state())
        self._pending: Optional[TaskHandle] = None

        # Rotating checkpoints (resilience): None unless configured, so
        # the coupling loop pays one `is None` branch when disabled.
        self.checkpoints = None
        if res.enabled and res.checkpoint_every > 0:
            from ..resilience.checkpoint import CheckpointManager

            self.checkpoints = CheckpointManager(
                res.checkpoint_dir, keep=res.checkpoint_keep, obs=self.obs
            )

        # Driver recovery (`run_couplings`): the failed coupling and how
        # many times in a row it failed, for the retry cap.
        self.recovery_events: list = []
        self._failed_at: Optional[int] = None
        self._failed_count = 0

        self.n_couplings = 0
        self._initialized = True

    def finalize(self) -> Dict[str, Dict[str, float]]:
        self._check()
        self._wait_ocean()
        self.scheduler.shutdown()
        with self.obs.span("esm.finalize"):
            out = {comp.name: comp.finalize() for comp in self.components}
        if self._owned_pool is not None:
            self._owned_pool.shutdown()
        return out

    def pool_stats(self):
        """:class:`~repro.pp.procpool.PoolStats` of the config-owned
        process pool, or ``None`` when the backend is not ``procs``."""
        return self._owned_pool.stats if self._owned_pool is not None else None

    def sypd(self) -> float:
        """Simulated years per wall-clock day so far (§6): the coupler
        clock over the wall seconds spent in :meth:`step_coupling`."""
        return sypd_from_walltime(self.clock.time, self.wall_s)

    # -- coupling loop ---------------------------------------------------------------

    def step_coupling(self) -> None:
        """One atmosphere coupling interval (+ ocean when its alarm rings).

        Domain 1 (cpl+atm+ice+lnd) executes inline; domain 2 (ocn) is
        launched at the alarm and its export published at the *next*
        alarm — one coupling period of lag either way, so the serial and
        concurrent schedules produce identical bits.
        """
        self._check()
        cfg = self.config
        obs = self.obs
        t0 = time.perf_counter()
        try:
            with obs.span("cpl.step", coupling=self.n_couplings):
                # Publish the lagged ocean export at the coupling whose
                # advance will ring the alarm, *before* domain 1 reads it.
                if self._pending is not None and self.clock.will_ring("cpl_ocn"):
                    self._publish_ocean()

                to_ocn, i2x = self.scheduler.execute("domain1", self._domain1_unit)

                self.clock.advance()
                if self.clock.ringing("cpl_ocn"):
                    forcing = self.exchange.transfer(
                        "x2o", self._ocean_forcing(to_ocn, i2x)
                    )
                    self._pending = self.scheduler.launch(
                        "domain2", lambda dom_obs: self._ocean_unit(dom_obs, forcing)
                    )
                    obs.counter("ocn.couplings").inc()
                    obs.counter("ocn.steps").inc(self.ocn_steps_per_coupling)
        finally:
            self.wall_s += time.perf_counter() - t0
        obs.counter("cpl.steps").inc()
        obs.counter("atm.steps").inc(cfg.atm_steps_per_coupling)
        self.n_couplings += 1

    def _domain1_unit(self, obs):
        """cpl + atm + ice + lnd for one coupling interval (reads only
        the *published* ocean export, never in-flight ocean state)."""
        cfg = self.config
        with obs.span("atm.run", steps=cfg.atm_steps_per_coupling):
            if self._atm_runner is not None:
                self._atm_runner(self.atm, cfg.atm_steps_per_coupling)
            else:
                self.atm.run(cfg.atm_steps_per_coupling)
            self.ctx.apply_precision(self.atm)
            a2x = self.exchange.transfer("a2x", self.atm.post_coupling())

        # --- direct atmosphere -> land -> atmosphere exchange --------
        with obs.span("lnd.step"):
            self.lnd.pre_coupling({
                "gsw": a2x["gsw"], "glw": a2x["glw"],
                "precip": a2x["precip"], "t_air": a2x["t_bot"],
            })
            self.lnd.step(self.dt_couple)
            self.ctx.apply_precision(self.lnd)
            lnd_out = self.lnd.post_coupling()

        # --- atmosphere -> ice (on the ocean grid) --------------------
        with obs.span("cpl.a2o_remap"):
            shape_o = self.ocn.metrics.shape
            to_ocn = {
                name: self.a2o.apply(a2x[name]).reshape(shape_o)
                for name in ("gsw", "glw", "t_bot", "taux", "tauy", "shflx", "lhflx", "precip")
            }
        with obs.span("ice.step"):
            o2x = self._o2x
            self.ice.pre_coupling({
                "gsw": to_ocn["gsw"],
                "glw": to_ocn["glw"],
                "t_air": to_ocn["t_bot"] - KELVIN,
                "sst": o2x["sst"],
                "freezing": o2x["freezing"],
                "u_drift": o2x["u_surf"],
                "v_drift": o2x["v_surf"],
            })
            self.ice.step(self.dt_couple)
            self.ctx.apply_precision(self.ice)
            i2x = self.exchange.transfer("i2x", self.ice.post_coupling())

        # --- ocean + ice + land -> atmosphere -------------------------
        with obs.span("cpl.o2a_merge"):
            sst_atm = self.o2a.apply((o2x["sst"] + KELVIN).reshape(-1))
            ice_frac_atm = np.clip(
                self.o2a.apply(i2x["ice_fraction"].reshape(-1)), 0.0, 1.0
            )
            ice_t_atm = self.o2a.apply((i2x["ice_tsurf"] + KELVIN).reshape(-1))
            skin = (1.0 - ice_frac_atm) * sst_atm + ice_frac_atm * ice_t_atm
            skin = np.where(self.land_mask_atm, lnd_out["tskin_land"], skin)
            self.atm.pre_coupling({"sst": skin, "ice_fraction": ice_frac_atm})
        return to_ocn, i2x

    def _ocean_forcing(self, to_ocn, i2x) -> Dict[str, np.ndarray]:
        """Merge atmosphere + ice fields into the x2o forcing bundle."""
        sst_k = self._o2x["sst"] + KELVIN
        open_water = 1.0 - i2x["ice_fraction"]
        net_heat = (
            (1.0 - OCEAN_ALBEDO) * to_ocn["gsw"]
            + to_ocn["glw"]
            - OCEAN_EMISSIVITY * STEFAN_BOLTZMANN * sst_k**4
            - to_ocn["shflx"]
            - to_ocn["lhflx"]
        ) * open_water
        evap = to_ocn["lhflx"] / LATENT_HEAT_VAPORIZATION
        return {
            "taux": to_ocn["taux"] * open_water,
            "tauy": to_ocn["tauy"] * open_water,
            "heat_flux": net_heat,
            "fresh_flux": (to_ocn["precip"] - evap) * open_water,
        }

    def _ocean_unit(self, obs, forcing) -> Dict[str, np.ndarray]:
        """Domain 2: one ocean coupling period; returns the new export
        (published by the driver at the next alarm, not here)."""
        with obs.span("ocn.run", substeps=self.ocn_steps_per_coupling):
            self.ocn.pre_coupling(forcing)
            self.ocn.step(self.ocn_steps_per_coupling * self.ocn.dt_baroclinic)
            self.ctx.apply_precision(self.ocn)
            return self.ocn.post_coupling()

    def _publish_ocean(self) -> None:
        """Join the pending ocean run and make its export visible (routed
        through the exchange layer, so pruning applies here too)."""
        if self._pending is not None:
            self._o2x = self.exchange.transfer("o2x", self._pending.result())
            self._pending = None

    def _wait_ocean(self) -> None:
        """Block until any in-flight ocean run finished (the export stays
        unpublished — publishing early would change the schedule)."""
        if self._pending is not None:
            self._pending.wait()

    def run_couplings(self, n: int) -> None:
        """The one coupling loop: step, and when a checkpoint manager
        exists, checkpoint at the cadence and turn a rank-loss-class
        failure from either task domain into :meth:`recover_from_failure`
        + deterministic replay (every component restores bitwise).
        Without a manager nothing is caught."""
        every = self.config.resilience.checkpoint_every
        target = self.n_couplings + n
        recoverable = _RECOVERABLE if self.checkpoints is not None else ()
        while True:
            try:
                if self.n_couplings >= target:
                    # Leave no thread mutating ocean state — and no
                    # poisoned run — once control returns.
                    self._check_pending()
                    return
                self.step_coupling()
                if self.checkpoints is not None and self.n_couplings % every == 0:
                    self.checkpoint()
            except recoverable as exc:
                self.recover_from_failure(exc)

    def _check_pending(self) -> None:
        """Join any in-flight ocean run and surface its failure *now*.

        Lagged coupling keeps a unit failure latent in the handle until
        publish; :meth:`checkpoint` and the end of a :meth:`run_couplings`
        window call this so a poisoned run is never checkpointed or
        handed back to the caller.  The export stays unpublished —
        ``result()`` is idempotent and publishing happens only at the
        alarm."""
        if self._pending is not None:
            self._pending.result()

    # -- resilience: rotating checkpoints + recovery ------------------------------

    def checkpoint(self):
        """Write one rotating checkpoint now (requires a configured
        ``resilience.checkpoint_every``/``checkpoint_dir``).  A pending
        domain-2 failure surfaces *first*: a checkpoint must never bake
        in an un-stepped ocean that a later rollback would restore."""
        if self.checkpoints is None:
            raise RuntimeError("checkpointing is not configured "
                               "(set config.resilience.checkpoint_*)")
        self._check_pending()
        return self.checkpoints.to_file(self.save_restart, self.n_couplings)

    def has_checkpoint(self) -> bool:
        """True when the rotation holds a published checkpoint (the cheap
        "can we resume?" probe)."""
        return self.checkpoints is not None and self.checkpoints.latest() is not None

    def recover(self):
        """Restore the newest *valid* checkpoint (corrupt or truncated
        sets are skipped and counted as ``resilience.checkpoint_fallbacks``);
        returns the checkpoint directory restored from."""
        if self.checkpoints is None:
            raise RuntimeError("checkpointing is not configured "
                               "(set config.resilience.checkpoint_*)")
        self._wait_ocean()
        return self.checkpoints.restore_latest_valid(self.load_restart)

    def rollback(self):
        """The one failure rollback (driver recovery and the fleet
        supervisor's member restart): abandon domain 2's outstanding work
        without joining it, drop the possibly poisoned lagged-export
        handle, restore the newest valid checkpoint; returns its
        directory.  Unlike :meth:`recover` it never waits on the ocean."""
        self.scheduler.reset("domain2")
        self._pending = None
        return self.checkpoints.restore_latest_valid(self.load_restart)

    #: Consecutive failures of the same coupling before recovery gives up
    #: (a fault no rollback can clear — e.g. a deterministic component bug).
    MAX_RECOVERY_RETRIES = 3

    def recover_from_failure(self, exc: BaseException) -> str:
        """ULFM-style driver recovery: abandon the failed domain's
        outstanding work (*revoke*), roll the whole coupled state back to
        the newest valid checkpoint, and let the caller replay forward
        deterministically.  The task-domain layout never changes, so the
        replay is bitwise-identical to a fault-free twin.

        ``exc`` itself is re-raised when the rotation holds no set yet
        (nothing to roll back to) or after the same coupling failed
        :attr:`MAX_RECOVERY_RETRIES` times in a row.

        Attribution (reported in the span and ``recovery_events``):
        ``WatchdogTimeout`` names its domain; any other failure is charged
        to domain 2 when an unpublished ocean run was outstanding, else to
        domain 1.  Rollback always covers the full coupled state.

        Returns the checkpoint directory restored from.
        """
        if not self.has_checkpoint():
            raise exc
        failed_at = self.n_couplings
        if failed_at == self._failed_at:
            self._failed_count += 1
        else:
            self._failed_at, self._failed_count = failed_at, 1
        if self._failed_count > self.MAX_RECOVERY_RETRIES:
            raise exc

        domain = getattr(exc, "domain", None) or (
            "domain2" if self._pending is not None else "domain1"
        )
        obs = self.obs
        with obs.span(
            "resilience.recovery",
            domain=domain,
            error=type(exc).__name__,
            coupling=failed_at,
        ):
            restored = self.rollback()
            replayed = failed_at - self.n_couplings
            obs.counter("resilience.recoveries").inc()
            obs.counter("resilience.ranks_lost").inc(
                len(getattr(exc, "dead", ())) or 1
            )
            obs.counter("resilience.replayed_couplings").inc(replayed)
            obs.gauge("resilience.recovery.coupling").set(float(self.n_couplings))
        self.recovery_events.append({
            "domain": domain,
            "error": type(exc).__name__,
            "failed_at_coupling": failed_at,
            "restored_to_coupling": self.n_couplings,
            "replayed_couplings": replayed,
            "checkpoint": str(restored),
        })
        return restored

    def run_days(self, days: float) -> None:
        per_day = 86400.0 / self.dt_couple
        self.run_couplings(max(1, int(round(days * per_day))))

    # -- restart I/O (§5.2.5, whole coupled system) ---------------------------------------

    def save_restart(self, directory) -> None:
        """Write all four components' restart sets plus the coupler clock
        and the lagged-coupling state (published export + pending flag)."""
        self._check()
        self._wait_ocean()
        from pathlib import Path

        from ..io.restart import save_restart

        base = Path(directory)
        for comp in self.components:
            comp.save_restart(base / comp.name)
        save_restart(
            base / "cpl",
            # Iterate the fields actually present: a pruned run publishes
            # (and must restore) only the surviving o2x subset.
            fields={
                f"o2x_{name}": np.asarray(self._o2x[name], dtype=float)
                for name in sorted(self._o2x)
            },
            scalars={
                "time": self.clock.time,
                "n_couplings": float(self.n_couplings),
                "step_count": float(self.clock.step_count),
                "pending_publish": 1.0 if self._pending is not None else 0.0,
            },
        )

    def load_restart(self, directory) -> None:
        """Restore the whole coupled system; clocks stay synchronized."""
        self._check()
        from pathlib import Path

        from ..io.restart import load_restart

        base = Path(directory)
        for comp in self.components:
            comp.load_restart(base / comp.name)
        fields, scalars = load_restart(base / "cpl")
        self.clock.time = scalars["time"]
        self.clock.step_count = int(scalars["step_count"])
        self.n_couplings = int(scalars["n_couplings"])
        o2x_names = sorted(k[len("o2x_"):] for k in fields if k.startswith("o2x_"))
        self._o2x = {
            name: fields[f"o2x_{name}"].astype(bool)
            if name == "freezing" else fields[f"o2x_{name}"]
            for name in o2x_names
        }
        # An unpublished export equals the (restored) current ocean state:
        # the run it came from had completed before the save.
        if scalars.get("pending_publish", 0.0) > 0.5:
            self._pending = TaskHandle(value=self.ocn.export_state())
        else:
            self._pending = None
        # Re-arm the ocean alarm consistently with the restored clock.
        alarm = self.clock._alarms["cpl_ocn"]
        periods_done = int(self.clock.time / alarm.interval + 1e-9)
        alarm.reset_to(periods_done)

    # -- coupler fast path (§5.2.4) -------------------------------------------------------

    #: Virtual ranks for the cached coupler decompositions (the coupler-
    #: side and ocean-side layouts a distributed run would use).
    N_COUPLER_RANKS = 4

    def _init_coupler_tables(self) -> None:
        """Offline coupler construction: resolve the GSMaps and Routers
        for the cpl<->ocn exchange through the content-addressed
        :class:`CouplerCache` (a warm cache skips ``Router.build``
        entirely) and compile one :class:`RearrangePlan` per direction —
        the o2x plan coalesces the o2x *and* i2x bundles (ice lives on
        the ocean grid) into a single message per (src, dst) edge."""
        cfg = self.config
        if self._shared_cache is not None:
            self.coupler_cache = self._shared_cache
        else:
            self.coupler_cache = CouplerCache(cfg.coupler_cache_dir, obs=self.obs)
        n = self.N_COUPLER_RANKS
        ncells = self.ocn.grid.mask.size
        grid = f"ocn-{cfg.ocn_nlon}x{cfg.ocn_nlat}"
        # Coupler side: contiguous blocks; ocean side: round-robin stripes
        # (the layouts differ, so the Routers are genuinely M-to-N).
        cpl_owners = np.arange(ncells) * n // ncells
        ocn_owners = np.arange(ncells) % n
        with self.obs.span("cpl.offline_build", grid=grid, ranks=n):
            gsmap_cpl = self.coupler_cache.get_gsmap(f"{grid}/cpl", cpl_owners)
            gsmap_ocn = self.coupler_cache.get_gsmap(f"{grid}/ocn", ocn_owners)
            router_x2o = self.coupler_cache.get_router(
                f"{grid}/cpl", f"{grid}/ocn", gsmap_cpl, gsmap_ocn
            )
            router_o2x = self.coupler_cache.get_router(
                f"{grid}/ocn", f"{grid}/cpl", gsmap_ocn, gsmap_cpl
            )
        self.gsmaps = {"cpl": gsmap_cpl, "ocn": gsmap_ocn}
        fields_of = (
            self.fields.pruned
            if cfg.prune_fields
            else lambda path: self.fields.registered[path]
        )
        self.plans = {
            "x2o": RearrangePlan.compile(router_x2o, {"x2o": fields_of("x2o")}),
            "o2x": RearrangePlan.compile(
                router_o2x, {"o2x": fields_of("o2x"), "i2x": fields_of("i2x")}
            ),
        }

    def coupler_report(self) -> Dict[str, object]:
        """Fast-path accounting: per-path exchange traffic and pruning
        savings, plus (when the cache is armed) cache hit/miss stats and
        the compiled plans' per-field vs. coalesced message counts."""
        self._check()
        ocn_lsize = self.ocn.grid.mask.size
        atm_lsize = self.atm.grid.n_cells
        lsizes = {"a2x": atm_lsize, "x2o": ocn_lsize,
                  "o2x": ocn_lsize, "i2x": ocn_lsize}
        report: Dict[str, object] = {
            "exchange": self.exchange.report(),
            "pruning": {
                path: self.fields.savings(path, lsizes[path])
                for path in sorted(self.fields.registered)
            },
        }
        if self.coupler_cache is not None:
            report["cache"] = self.coupler_cache.stats()
            report["plans"] = {
                name: plan.message_counts(self.N_COUPLER_RANKS)
                for name, plan in sorted(self.plans.items())
            }
        return report

    # -- performance-layout description (§5.1.2) -----------------------------------------

    def task_domains(self) -> Dict[str, Dict[str, object]]:
        """The two concurrent task domains the paper allocates resources
        to (consumed by ``CoupledPerfModel.from_layout``)."""
        return self.scheduler.layout()

    # -- model-wide precision ledger (§5.2.3) --------------------------------------------

    def memory_report(self) -> Dict[str, float]:
        """Resident prognostic-state bytes under the precision policy,
        across all four components."""
        self._check()
        self._wait_ocean()
        return self.ctx.memory_report(self.components)

    def _check(self) -> None:
        if not self._initialized:
            raise RuntimeError("coupled model not initialized (call init())")
