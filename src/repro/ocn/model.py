"""LICOM-like ocean component behind the CPL7 contract.

Substep hierarchy per §6.1: **barotropic : baroclinic : tracer =
2 s : 20 s : 20 s** — kept as exact ratios (10 barotropic substeps per
baroclinic step, tracers at the baroclinic step), with the absolute step
set by the barotropic CFL of the grid in use.

The substep is cache-blocked on the full (nlev, nlat, nlon) box: the
horizontal-stencil phases run over level slabs sized against one constant
(:func:`repro.ocn.metrics.level_slabs`) as in-place slice ops (an x-shift is
a flat offset, a y-shift a row slice, a mask an ``np.copyto(..., where=)``
over a frozen inverted mask), with T and S, and u and v, stacked on a
leading axis; the column phases (Ri/kappa and the Thomas factor and sweeps,
:mod:`repro.ocn.mixing`) run as in-place whole-stack and row ops, T and S
share one factorisation of the vertical solve, the wind-stress
accelerations are computed once per step for all barotropic substeps, the
freezing clamp is in place, and everything that depends only on grid,
mask, ``dz`` and ``dt`` is frozen on first use.  The §5.2.2
non-ocean-point removal exists as packed-point kernels
(:mod:`repro.ocn.compress`, :mod:`repro.ocn.kernels`) and the memory ledger
:meth:`LicomModel.memory_report`; stepping on packed fields is not implemented.

Boundary exchange: imports wind stress, net heat flux, and freshwater
flux from the coupler; exports SST, SSH, surface currents, and the
freezing-potential mask the sea-ice component consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..component import ComponentBase
from ..grids.tripolar import TripolarGrid
from ..precision import Precision
from . import kernels  # noqa: F401 — joins pp.KERNELS at start-up (§5.3)
from .barotropic import BarotropicSolver, BarotropicState
from .baroclinic import BaroclinicSolver
from .compress import Compressor
from .metrics import CGridMetrics
from .tracer import TracerSolver

__all__ = ["LicomConfig", "LicomModel"]

BAROTROPIC_SUBSTEPS = 10  # 20 s / 2 s

T_FREEZE = -1.8  # deg C, seawater freezing point


@dataclass
class LicomConfig:
    nlon: int = 96
    nlat: int = 64
    n_levels: int = 20
    cfl: float = 0.6
    start_time: float = 0.0
    initial_t_surface: float = 18.0   # deg C
    initial_s: float = 35.0           # psu


class LicomModel(ComponentBase):
    """The ocean component (init / run / finalize, import / export).

    The bound context's precision policy selects the compute (§5.2.3):
    when it stores every ``STATE`` key in reduced precision, the state,
    the forcing slots and every frozen table are held and stepped in fp32
    (:meth:`set_context`).  Otherwise they are fp64 and the policy's
    storage round trip applies.  The exports are fp64 either way.
    """

    name = "ocn"
    STATE = {
        "t": "t", "s": "s", "u": "u", "v": "v",
        "eta": "bt.eta", "bt_u": "bt.u", "bt_v": "bt.v",
    }
    # Forcing slots (set by import_state, held between ocean couplings).
    RESTART_EXTRA = ("taux", "tauy", "heat_flux", "fresh_flux")

    def __init__(
        self,
        config: LicomConfig | None = None,
    ) -> None:
        self.config = config if config is not None else LicomConfig()
        super().__init__()

    def set_context(self, ctx) -> None:
        """Bind ``ctx`` and take the compute dtype from ``ctx.precision``:
        fp32 when every ocean prognostic is stored in reduced precision,
        else fp64.  A live model is re-held in the new dtype."""
        super().set_context(ctx)
        reduced = all(
            ctx.precision.precision_of(f"{self.name}.{k}") is not Precision.FP64
            for k in self.STATE
        )
        self.dtype = np.dtype(np.float32 if reduced else np.float64)
        if self._initialized:
            self._hold(self.dtype)

    def _build_tables(self, dtype) -> None:
        """Metrics, thicknesses and the three solvers, frozen in ``dtype``
        (always derived from the fp64 grid and metrics)."""
        self.metrics = self._metrics64.astype(dtype)
        self.dz = np.diff(self.grid.z_interfaces).astype(dtype, copy=False)
        self.barotropic = BarotropicSolver(self.metrics, self.grid.depth.astype(dtype, copy=False))
        self.baroclinic = BaroclinicSolver(self.metrics, self.mask3d, self.dz)
        self.tracers = TracerSolver(self.metrics, self.mask3d, self.dz)

    def _hold(self, dtype) -> None:
        """Re-hold the tables, the state and the forcing slots in ``dtype``."""
        if self.dz.dtype == dtype:
            return
        self._build_tables(dtype)
        for path in (*self.STATE.values(), *self.RESTART_EXTRA):
            owner, leaf = self._slot(path)
            setattr(owner, leaf, getattr(owner, leaf).astype(dtype))

    # -- CPL7 contract -----------------------------------------------------------

    def init(self) -> None:
        cfg = self.config
        self.grid = TripolarGrid.build(cfg.nlon, cfg.nlat, n_levels=cfg.n_levels)
        self.mask3d = self.grid.levels_mask()
        self._metrics64 = CGridMetrics.build(self.grid)
        self._build_tables(np.float64)

        self.dt_barotropic = self.barotropic.max_stable_dt(cfg.cfl)
        self.dt_baroclinic = BAROTROPIC_SUBSTEPS * self.dt_barotropic
        self.dt_tracer = self.dt_baroclinic

        shape3 = self.mask3d.shape
        # Initial stratification: warm surface decaying with depth, with a
        # meridional anomaly that also decays with depth (a deep anomaly
        # confined to the surface would leave a permanent abyssal pressure
        # gradient that this advection-free baroclinic core cannot
        # equilibrate).
        z_mid = 0.5 * (self.grid.z_interfaces[:-1] + self.grid.z_interfaces[1:])
        t_prof = 2.0 + (cfg.initial_t_surface - 2.0) * np.exp(-z_mid / 800.0)
        merid = (cfg.initial_t_surface + 8.0) * np.cos(self.grid.lat) ** 2 - (
            cfg.initial_t_surface - 2.0
        )
        decay = np.exp(-z_mid / 500.0)
        self.t = np.where(
            self.mask3d,
            t_prof[:, None, None] + merid[None, :, :] * decay[:, None, None],
            0.0,
        )
        self.s = np.where(self.mask3d, cfg.initial_s, 0.0)
        self.u = np.zeros(shape3)
        self.v = np.zeros(shape3)
        self.bt = BarotropicState.zeros(self.metrics.shape)

        # Forcing slots (set by import_state).
        self.taux = np.zeros(self.metrics.shape)
        self.tauy = np.zeros(self.metrics.shape)
        self.heat_flux = np.zeros(self.metrics.shape)
        self.fresh_flux = np.zeros(self.metrics.shape)

        self.time = cfg.start_time
        self.n_steps = 0
        self._initialized = True
        self._hold(self.dtype)

    def finalize(self) -> Dict[str, float]:
        self._check_alive()
        summary = {
            "steps": float(self.n_steps),
            "simulated_seconds": self.time - self.config.start_time,
            "heat_content": self.tracers.content(self.t),
            "salt_content": self.tracers.content(self.s),
        }
        self._finalized = True
        return summary

    # -- boundary exchange ----------------------------------------------------------

    def import_state(self, fields: Dict[str, np.ndarray]) -> None:
        """Receive atmosphere/ice forcing (already remapped to this grid)."""
        self._check_alive()
        shape = self.metrics.shape
        for key in self.RESTART_EXTRA:
            if key in fields:
                arr = np.asarray(fields[key], self.dtype)
                if arr.shape != shape:
                    raise ValueError(f"{key} must be (nlat, nlon)")
                setattr(self, key, np.where(self.metrics.mask_c, arr, 0.0))

    def export_state(self) -> Dict[str, np.ndarray]:
        """Surface fields for the coupler, always fp64."""
        self._check_alive()
        return {
            "sst": self.t[0].astype(np.float64),
            "sss": self.s[0].astype(np.float64),
            "ssh": self.bt.eta.astype(np.float64),
            "u_surf": (self.u[0] + self.bt.u).astype(np.float64, copy=False),
            "v_surf": (self.v[0] + self.bt.v).astype(np.float64, copy=False),
            "freezing": (self.t[0] <= T_FREEZE) & self.mask3d[0],
        }

    # -- stepping ---------------------------------------------------------------------

    def step(self, dt: Optional[float] = None) -> None:
        """One baroclinic step = 10 barotropic substeps + momentum + tracers.

        With an explicit ``dt`` (the Component-protocol form) the model
        advances ``round(dt / dt_baroclinic)`` internal steps."""
        if dt is not None:
            self.run(max(1, int(round(dt / self.dt_baroclinic))))
            return
        self._check_alive()
        with self.obs.span("ocn.barotropic"):
            wind = self.barotropic.wind_acceleration(self.taux, self.tauy)
            for _ in range(BAROTROPIC_SUBSTEPS):
                self.bt = self.barotropic.step(self.bt, self.dt_barotropic, wind=wind)
        with self.obs.span("ocn.baroclinic"):
            self.u, self.v = self.baroclinic.step(
                self.u, self.v, self.t, self.s, self.dt_baroclinic,
                self.taux, self.tauy,
            )
        with self.obs.span("ocn.tracer"):
            u_tot = self.u + self.bt.u[None]
            v_tot = self.v + self.bt.v[None]
            self.t, self.s = self.tracers.step(
                self.t, self.s, u_tot, v_tot, self.dt_tracer,
                surface_heat_flux=self.heat_flux,
                surface_fresh_flux=self.fresh_flux,
            )
            # Seawater cannot cool below freezing; the deficit is the
            # ice-formation signal exported to the sea-ice component.
            np.maximum(self.t, T_FREEZE, out=self.t, where=self.mask3d)
        self.time += self.dt_baroclinic
        self.n_steps += 1

    # -- compression ledger ------------------------------------------------------------

    def memory_report(self) -> Dict[str, float]:
        """Resident prognostic-state bytes, full vs packed on wet points
        (§5.2.2)."""
        comp = Compressor(self.mask3d)
        full, packed = comp.memory_bytes(n_fields=4)  # t, s, u, v
        return {
            "full_bytes": float(full),
            "packed_bytes": float(packed),
            "reduction": comp.reduction,
        }
