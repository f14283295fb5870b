"""CICE4-like sea-ice component.

Thermodynamics (energy-balance growth/melt of thickness and concentration)
plus free-drift dynamics with upwind transport, on the *ocean's* tripolar
grid with the same land masking — "the configuration of the sea-ice
component is designed to mirror that of the ocean component" (§6.1), and
the 3-D point-removal optimization "has been applied to the sea-ice model"
too (§5.2.2): the ice state can run compressed on ocean surface points.

Imports: SST + freezing mask (ocean), downward radiation + air temperature
(atmosphere).  Exports: ice fraction and surface temperature (to both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..component import ComponentBase
from ..grids.tripolar import TripolarGrid
from ..ocn.metrics import CGridMetrics, transport, upwind_faces
from .kernels import run_thermodynamics

__all__ = ["CiceConfig", "CiceModel"]

T_FREEZE = -1.8       # deg C
ICE_ALBEDO = 0.65
OCEAN_ALBEDO = 0.07
MIN_CONCENTRATION = 1e-4


@dataclass
class CiceConfig:
    drift_wind_factor: float = 0.02    # ice drifts at 2 % of the 10 m wind
    drift_ocean_factor: float = 0.8
    conductivity: float = 2.0          # W/(m K) through the slab
    h_min: float = 0.05                # m, new-ice thickness
    start_time: float = 0.0


class CiceModel(ComponentBase):
    """The sea-ice component (mirrors the ocean grid)."""

    name = "ice"
    STATE = {
        "thickness": "thickness",
        "concentration": "concentration",
        "tsurf": "tsurf",
    }

    def __init__(
        self,
        grid: TripolarGrid,
        config: CiceConfig | None = None,
    ) -> None:
        self.grid = grid
        self.config = config if config is not None else CiceConfig()
        super().__init__()

    def init(self) -> None:
        self.metrics = CGridMetrics.build(self.grid)
        shape = self.metrics.shape
        self.thickness = np.zeros(shape)       # m (grid-cell mean)
        self.concentration = np.zeros(shape)   # 0..1
        self.tsurf = np.full(shape, T_FREEZE)  # deg C
        # Seed ice poleward of 70 deg where there is ocean.
        polar = (np.abs(self.grid.lat) > np.radians(70.0)) & self.grid.mask
        self.thickness[polar] = 1.5
        self.concentration[polar] = 0.9

        self.sst = np.full(shape, 0.0)
        self.freezing = np.zeros(shape, dtype=bool)
        self.gsw = np.zeros(shape)
        self.glw = np.zeros(shape)
        self.t_air = np.full(shape, T_FREEZE)
        self.u_drift = np.zeros(shape)
        self.v_drift = np.zeros(shape)
        self.time = self.config.start_time
        self.n_steps = 0
        self._initialized = True

    def finalize(self) -> Dict[str, float]:
        self._check_alive()
        return {
            "steps": float(self.n_steps),
            "ice_volume": self.total_volume(),
            "ice_area": self.total_area(),
        }

    # -- boundary exchange -----------------------------------------------------

    def import_state(self, fields: Dict[str, np.ndarray]) -> None:
        self._check_alive()
        shape = self.metrics.shape
        for key in ("sst", "freezing", "gsw", "glw", "t_air", "u_drift", "v_drift"):
            if key in fields:
                arr = np.asarray(fields[key])
                if arr.shape != shape:
                    raise ValueError(f"{key} must be (nlat, nlon)")
                setattr(self, key, arr)

    def export_state(self) -> Dict[str, np.ndarray]:
        self._check_alive()
        return {
            "ice_fraction": self.concentration.copy(),
            "ice_thickness": self.thickness.copy(),
            "ice_tsurf": self.tsurf.copy(),
            "albedo": np.where(
                self.grid.mask,
                OCEAN_ALBEDO + (ICE_ALBEDO - OCEAN_ALBEDO) * self.concentration,
                0.3,
            ),
        }

    # -- stepping -----------------------------------------------------------------

    def step(self, dt: Optional[float] = None) -> None:
        self._check_alive()
        if dt is None:
            raise ValueError("the ice component needs an explicit coupling dt")
        with self.obs.span("ice.thermo"):
            self._thermodynamics(dt)
        with self.obs.span("ice.dynamics"):
            self._dynamics(dt)
        self.time += dt
        self.n_steps += 1

    def _thermodynamics(self, dt: float) -> None:
        """Slab energy balance: grow where the ocean is at freezing and
        losing heat, melt where the surface balance is positive.

        Dispatched as a tiled MDRange through :mod:`repro.ice.kernels` on
        the bound execution space (the shared coupled-run space)."""
        cfg = self.config
        freezing = np.asarray(self.freezing, dtype=bool)
        self.thickness, self.concentration, self.tsurf = run_thermodynamics(
            self.ctx,
            self.thickness, self.concentration, self.tsurf,
            self.gsw, self.glw, self.t_air, freezing, self.grid.mask,
            dt, cfg.conductivity, cfg.h_min,
        )

    def _dynamics(self, dt: float) -> None:
        """Free drift + upwind transport of thickness and concentration,
        stacked, through the ocean tracer's flux-form kernel."""
        cfg = self.config
        m = self.metrics
        # Drift on the open faces only.
        u = np.where(m.mask_u, cfg.drift_ocean_factor * self.u_drift, 0.0)
        v = np.where(m.mask_v, cfg.drift_ocean_factor * self.v_drift, 0.0)
        c = np.stack((self.thickness, self.concentration))
        new = transport(c, upwind_faces(c, u, v), (u, v), ((m.ly_east,), (m.lx_north,)), dt, m.area)
        np.maximum(new, 0.0, out=new)
        np.copyto(new, 0.0, where=m.closed[0])
        np.clip(new[1], 0.0, 1.0, out=new[1])
        self.thickness, self.concentration = new

    # -- diagnostics ---------------------------------------------------------------

    def total_volume(self) -> float:
        return float(np.sum(self.metrics.area * self.thickness))

    def total_area(self) -> float:
        return float(np.sum(self.metrics.area * self.concentration))
