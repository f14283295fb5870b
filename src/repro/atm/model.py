"""GRIST-like atmosphere model: dycore + tracer transport + column physics
behind the CPL7 component contract (init / run / finalize, import / export).

Structure mirrors the paper's §5.1.1 and §6.1:

* timestep hierarchy **dycore : tracer : model(physics)**: a one-hour model
  step at every level, split into the fewest (and at least two) equal dycore
  substeps inside RK4's stability bound (the paper's 8 s : 120 s at 1-3 km) and
  4 tracer substeps (the paper's 4 per 15 dycore substeps once that is more);
* a physics suite that is either the conventional parameterizations or the
  **AI suite**, exchanged through the same physics-dynamics coupling
  interface ("this suite gets the input variables from the dynamical core
  and returns full physical variables back");
* ``import_state`` / ``export_state`` carrying exactly the boundary fields
  the coupler moves (SST and ice fraction in; wind stress, heat fluxes,
  radiation, precipitation out);
* the land surface model is driven *directly* (bypassing the coupler), as
  in the paper: "GRIST and the land surface model directly exchange data".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol

import numpy as np

from ..component import ComponentBase
from ..grids import trsk
from ..grids.icos import IcosahedralGrid
from ..grids.sphere import tangent_basis
from ..utils.units import RHO_AIR
from .columns import ColumnState, pressure_levels, reference_profiles
from .dycore import ShallowWaterDycore, williamson_tc2
from .physics import ConventionalPhysics, PhysicsTendencies

__all__ = ["GristConfig", "GristModel"]

# The paper's 8 s : 30 s : 120 s hierarchy, kept as the tracer-to-dycore ratio.
DYCORE_SUBSTEPS = 15  # 120 s / 8 s
TRACER_SUBSTEPS = 4   # 120 s / 30 s
# ``max_stable_dt(cfl=1)`` is RK4's 2*sqrt(2) limit for a Gershgorin bound on
# the TRSK operator (the power-iterated radius puts the true one 1.3-1.6x out).
RK4_MARGIN = 0.9


class PhysicsSuite(Protocol):
    def compute(self, state: ColumnState, dt_s: float) -> PhysicsTendencies: ...


@dataclass
class GristConfig:
    """One GRIST instance: a 3 600 s model step, ≤ 1 800 s dycore substeps inside RK4's bound."""

    level: int = 4
    nlev: int = 30
    diffusion: float = 1.0e5
    start_time: float = 0.0
    heating_feedback: float = 0.02  # column heating -> thickness coupling
    # Time scheme: "rk4" (explicit) or "semi_implicit" (theta-method with
    # the CG Helmholtz solve — the paper's method class, §2).  The
    # semi-implicit path splits the model step on 2x the explicit bound.
    time_scheme: str = "rk4"


class GristModel(ComponentBase):
    """The atmosphere component.

    Lifecycle: ``init()`` -> ``run(n)``/``step()`` -> ``finalize()``;
    boundary exchange through ``import_state`` / ``export_state``.
    """

    name = "atm"
    STATE = {
        "h": "swe.h", "u": "swe.u",
        "t_col": "t_col", "q_col": "q_col",
        "tracer": "tracer", "tskin": "tskin",
    }
    RESTART_EXTRA = ("ice_fraction",)

    def __init__(
        self,
        config: GristConfig | None = None,
        physics: Optional[PhysicsSuite] = None,
    ) -> None:
        self.config = config if config is not None else GristConfig()
        self.physics: PhysicsSuite = physics if physics is not None else ConventionalPhysics()
        super().__init__()

    # -- CPL7 contract ---------------------------------------------------------

    def init(self) -> None:
        """Build grid, dycore, column state, and the model clock."""
        cfg = self.config
        if cfg.time_scheme not in ("rk4", "semi_implicit"):
            raise ValueError("time_scheme must be 'rk4' or 'semi_implicit'")
        self.grid = IcosahedralGrid.build(cfg.level)
        # Local (east, north) and edge-normal unit vectors as (3, n) rows.
        self._east, self._north = (np.ascontiguousarray(b.T) for b in tangent_basis(self.grid.xyz_cell))
        self._normal = np.ascontiguousarray(self.grid.normal.T)
        self.swe = williamson_tc2(self.grid)
        self.dycore = ShallowWaterDycore(self.grid, diffusion=cfg.diffusion)
        self.dt_model = 3600.0  # the physics (and coupling) step at every level
        dt_rk4 = RK4_MARGIN * self.dycore.max_stable_dt(self.swe, cfl=1.0)
        if cfg.time_scheme == "semi_implicit":
            from .semi_implicit import SemiImplicitDycore

            self._si = SemiImplicitDycore(self.grid, diffusion=cfg.diffusion)
            # Gravity waves are implicit: allow 2x the explicit step.
            dt_limit = 2.0 * dt_rk4
        else:
            self._si = None
            # Two substeps at least: one 3 600 s step is ~16x less accurate at level 2.
            dt_limit = min(dt_rk4, self.dt_model / 2)
        n = self.dycore_substeps = math.ceil(self.dt_model / dt_limit)
        self.tracer_substeps = max(TRACER_SUBSTEPS, math.ceil(TRACER_SUBSTEPS * n / DYCORE_SUBSTEPS))
        self.dt_dycore = self.dt_model / n
        self.dt_tracer = self.dt_model / self.tracer_substeps

        nc = self.grid.n_cells
        self.p = pressure_levels(cfg.nlev)
        t_ref, q_ref = reference_profiles(self.p)
        h_anom = (self.swe.h - self.swe.h.mean()) / self.swe.h.mean()
        self.t_col = t_ref[None, :] + 30.0 * h_anom[:, None]
        self.q_col = np.tile(q_ref, (nc, 1)) * (1.0 + h_anom[:, None])
        self.tracer = np.ones(nc)  # advected column moisture scaling
        self.tskin = self.t_col[:, -1] + 1.0
        self.ice_fraction = np.zeros(nc)

        self.time = cfg.start_time
        self.n_steps = 0
        # Diagnostics exported to the coupler / written by benches.
        self.diag: Dict[str, np.ndarray] = {}
        self._initialized = True

    def finalize(self) -> Dict[str, float]:
        """Release heavy state; return summary statistics."""
        if not self._initialized:
            raise RuntimeError("finalize before init")
        summary = {
            "steps": float(self.n_steps),
            "simulated_seconds": self.time - self.config.start_time,
            "mass": self.dycore.total_mass(self.swe),
        }
        self._finalized = True
        return summary

    # -- boundary exchange -------------------------------------------------------

    def import_state(self, fields: Dict[str, np.ndarray]) -> None:
        """Receive boundary data (ocean/ice -> atmosphere)."""
        self._check_alive()
        if "sst" in fields:
            sst = np.asarray(fields["sst"])
            if sst.shape != self.tskin.shape:
                raise ValueError("sst must be on atmosphere cells (remap first)")
            # Ocean skin temperature relaxes to the imported SST.
            self.tskin = sst.copy()
        if "ice_fraction" in fields:
            self.ice_fraction = np.clip(np.asarray(fields["ice_fraction"]), 0.0, 1.0)

    def export_state(self) -> Dict[str, np.ndarray]:
        """Provide boundary data (atmosphere -> coupler)."""
        self._check_alive()
        u_cell, v_cell = self._cell_winds()
        wind = np.sqrt(u_cell**2 + v_cell**2)
        cd = 1.3e-3
        taux = RHO_AIR * cd * wind * u_cell
        tauy = RHO_AIR * cd * wind * v_cell
        out = {
            "taux": taux,
            "tauy": tauy,
            "t_bot": self.t_col[:, -1],
            "q_bot": self.q_col[:, -1],
            "u_bot": u_cell,
            "v_bot": v_cell,
        }
        for key in ("gsw", "glw", "precip", "shflx", "lhflx", "cloud_fraction"):
            if key in self.diag:
                out[key] = self.diag[key]
        return out

    # -- stepping -----------------------------------------------------------------

    def step(self, dt: Optional[float] = None) -> None:
        """One model (physics) step of ``dt_model`` = 3 600 s: ``dycore_substeps``
        dycore substeps inside RK4's bound, ``tracer_substeps`` tracer substeps, physics.

        With an explicit ``dt`` (the Component-protocol form) the model
        advances ``round(dt / dt_model)`` internal steps — the coupled
        driver passes one coupling interval."""
        if dt is not None:
            self.run(max(1, int(round(dt / self.dt_model))))
            return
        self._check_alive()
        self._dynamics_substeps()
        with self.obs.span("atm.physics"):
            self._physics_step(self.dt_model)
        self.time += self.dt_model
        self.n_steps += 1

    def begin_step(self) -> ColumnState:
        """First half of one model step, for lockstep ensemble drivers:
        advance dynamics (dycore + tracer substeps) and return the physics
        input columns.  Pair every call with :meth:`complete_step`; the
        two halves compose bitwise-identically to :meth:`step` when the
        tendencies come from the same physics suite."""
        self._check_alive()
        self._dynamics_substeps()
        return self.current_columns()

    def complete_step(self, tend: PhysicsTendencies) -> None:
        """Second half of one model step: apply externally computed physics
        tendencies (e.g. a cross-member batched slice) and tick the clock."""
        self._check_alive()
        with self.obs.span("atm.physics"):
            self._apply_physics(tend, self.dt_model)
        self.time += self.dt_model
        self.n_steps += 1

    # -- internals ------------------------------------------------------------------

    def _cell_winds(self) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct (east, north) cell winds from edge normals:
        V_c = (1/A_c) sum_e le u_e (x_e - x_c) projected on the local basis."""
        vec = trsk.cell_vector(self.grid, self.swe.u)
        return trsk.term_sum(vec * self._east), trsk.term_sum(vec * self._north)

    def _advect_tracer(self, dt: float) -> None:
        """First-order upwind, flux-form, mass-conserving tracer step."""
        g = self.grid
        tb = g.trsk_tables
        h_e = trsk.cell_to_edge(g, self.swe.h)
        upwind = np.where(self.swe.u > 0, self.tracer[tb.c1], self.tracer[tb.c2])
        flux = g.le * self.swe.u * h_e * upwind
        dmass = tb.inflow @ flux
        mass = self.tracer * self.swe.h * g.area_cell
        mass = mass + dt * dmass
        # h has moved too within the dycore substep bundle; normalize by the
        # *current* h to keep the tracer a mixing ratio.
        self.tracer = mass / (self.swe.h * g.area_cell)

    def _coszr(self) -> np.ndarray:
        """Cosine of solar zenith angle from lon/lat and model time."""
        g = self.grid
        day_phase = 2.0 * math.pi * (self.time % 86400.0) / 86400.0
        year_phase = 2.0 * math.pi * (self.time % (365.0 * 86400.0)) / (365.0 * 86400.0)
        declination = 0.41 * math.sin(year_phase)
        hour_angle = g.lon_cell + day_phase
        return np.clip(
            np.sin(g.lat_cell) * math.sin(declination)
            + np.cos(g.lat_cell) * math.cos(declination) * np.cos(hour_angle),
            0.0,
            1.0,
        )

    def current_columns(self) -> ColumnState:
        """The physics-suite input columns for the current model state —
        exactly what the physics-dynamics coupling interface hands to the
        suite (and what AI-training archives harvest)."""
        u_cell, v_cell = self._cell_winds()
        shape = (1.0 - (self.p / self.p[-1]) ** 2)[None, :]
        return ColumnState(
            u=u_cell[:, None] * (1.0 + shape),
            v=v_cell[:, None] * (1.0 + shape),
            t=self.t_col.copy(),
            q=np.clip(self.q_col * self.tracer[:, None], 0.0, 0.04),
            p=self.p,
            tskin=self.tskin.copy(),
            coszr=self._coszr(),
        )

    def _dynamics_substeps(self) -> None:
        """The dynamics half of one model step (dycore + tracer bundles)."""
        with self.obs.span("atm.dycore"):
            for _ in range(self.dycore_substeps):
                if self._si is not None:
                    self.swe = self._si.step(self.swe, self.dt_dycore)
                else:
                    self.swe = self.dycore.step_rk4(self.swe, self.dt_dycore)
        with self.obs.span("atm.tracer"):
            for _ in range(self.tracer_substeps):
                self._advect_tracer(self.dt_tracer)

    def bind_physics(self) -> None:
        """Hand the suite this atmosphere's dispatch handle.  Done before
        every suite call rather than once, so a suite object shared by
        ensemble members launches through — and counts on — its caller."""
        if hasattr(self.physics, "bind"):
            self.physics.bind(self.ctx)

    def _physics_step(self, dt: float) -> None:
        cols = self.current_columns()
        self.bind_physics()
        tend = self.physics.compute(cols, dt)
        self._apply_physics(tend, dt)

    def _apply_physics(self, tend: PhysicsTendencies, dt: float) -> None:
        g = self.grid
        self.t_col = self.t_col + dt * tend.dt
        self.q_col = np.clip(self.q_col + dt * tend.dq, 0.0, 0.04)

        # Physics-dynamics coupling: column heating expands/contracts the
        # fluid thickness (hypsometric feedback), and surface momentum
        # tendencies project onto the edges.
        heating = tend.dt.mean(axis=1)
        self.swe.h = self.swe.h * (
            1.0 + self.config.heating_feedback * dt * heating / np.maximum(self.t_col.mean(axis=1), 100.0)
        )
        tb = g.trsk_tables
        vec = tend.du[:, -1] * self._east + tend.dv[:, -1] * self._north
        vec_e = 0.5 * (vec[:, tb.c1] + vec[:, tb.c2])
        self.swe.u = self.swe.u + dt * trsk.term_sum(vec_e * self._normal)

        # Land skin temperature responds to radiation where no SST is
        # imported (simple prognostic; the land model refines this).
        self.diag = {
            "gsw": tend.gsw,
            "glw": tend.glw,
            "precip": tend.precip,
            "shflx": tend.shflx,
            "lhflx": tend.lhflx,
            "cloud_fraction": tend.cloud_fraction,
        }
