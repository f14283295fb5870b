"""Bucket land-surface model, directly coupled to the atmosphere.

Per §5.1.1: "GRIST and the land surface model directly exchange data,
bypassing the coupler.  Consequently, AP3ESM does not currently include a
coupler-owned land model component."  This model therefore lives on the
*atmosphere's* icosahedral cells (its land subset) and exchanges fields
through plain method calls from :class:`repro.atm.model.GristModel` /
the AP3ESM driver, not through MCT.

Physics: a classic Manabe bucket — surface energy balance for skin
temperature (forced by the gsw/glw the AI radiation module produces,
which "serve as inputs to the land surface model"), bucket hydrology
(precipitation in, evaporation out, runoff when full).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..component import ComponentBase
from .kernels import run_bucket

__all__ = ["LandConfig", "LandModel"]


@dataclass
class LandConfig:
    bucket_capacity: float = 0.15      # m of water
    heat_capacity: float = 2.0e5       # J/(m^2 K) effective surface slab
    albedo: float = 0.25
    snow_albedo: float = 0.65          # deep-snow albedo
    snow_masking_depth: float = 0.05   # m SWE at which snow dominates albedo
    emissivity: float = 0.95
    beta_exponent: float = 1.0         # evaporation efficiency curve
    start_time: float = 0.0

# Re-exported from the kernel module (single source of truth for the
# portable bucket kernel and its host model).
from .kernels import T_SNOW  # noqa: E402


class LandModel(ComponentBase):
    """Bucket land surface on a set of (atmosphere) land cells."""

    name = "lnd"
    STATE = {
        "tskin": "tskin", "bucket": "bucket",
        "snow": "snow", "runoff_total": "runoff_total",
    }

    def __init__(
        self,
        n_cells: int,
        land_mask: Optional[np.ndarray] = None,
        config: LandConfig | None = None,
    ) -> None:
        if n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        self.n_cells = n_cells
        self.land_mask = (
            np.ones(n_cells, dtype=bool) if land_mask is None else np.asarray(land_mask, bool)
        )
        if self.land_mask.shape != (n_cells,):
            raise ValueError("land_mask must have one entry per cell")
        self.config = config if config is not None else LandConfig()
        super().__init__()

    def init(self) -> None:
        cfg = self.config
        self.tskin = np.full(self.n_cells, 285.0)
        self.bucket = np.full(self.n_cells, 0.5 * cfg.bucket_capacity)
        self.snow = np.zeros(self.n_cells)  # snow water equivalent, m
        self.runoff_total = np.zeros(self.n_cells)
        self.time = cfg.start_time
        self.n_steps = 0
        self._forcing: Optional[Dict[str, np.ndarray]] = None
        self._outputs: Dict[str, np.ndarray] = {}
        self._initialized = True

    # -- Component protocol (shared context + uniform coupling surface) ----------

    def pre_coupling(self, imports: Dict[str, np.ndarray]) -> None:
        """Stage the atmosphere forcing for the next :meth:`step`."""
        self._check_alive()
        self._forcing = dict(imports)

    def step(self, dt: Optional[float] = None) -> None:
        """Run one bucket step on the staged forcing."""
        self._check_alive()
        if dt is None:
            raise ValueError("the land component needs an explicit coupling dt")
        if self._forcing is None:
            raise RuntimeError("pre_coupling must stage forcing before step")
        self._outputs = self.force(
            gsw=self._forcing["gsw"], glw=self._forcing["glw"],
            precip=self._forcing["precip"], t_air=self._forcing["t_air"],
            dt=dt,
        )

    def post_coupling(self) -> Dict[str, np.ndarray]:
        """The surface state the atmosphere reads back."""
        self._check_alive()
        return self._outputs

    def effective_albedo(self) -> np.ndarray:
        """Snow-masked surface albedo: blends toward the snow albedo as
        the pack deepens past the masking depth."""
        cfg = self.config
        cover = np.clip(self.snow / cfg.snow_masking_depth, 0.0, 1.0)
        return cfg.albedo + (cfg.snow_albedo - cfg.albedo) * cover

    def finalize(self) -> Dict[str, float]:
        self._check_alive()
        return {
            "steps": float(self.n_steps),
            "mean_tskin": float(self.tskin[self.land_mask].mean()),
            "total_runoff": float(self.runoff_total[self.land_mask].sum()),
        }

    # -- direct (coupler-bypassing) exchange ------------------------------------

    def force(
        self,
        gsw: np.ndarray,
        glw: np.ndarray,
        precip: np.ndarray,
        t_air: np.ndarray,
        dt: float,
    ) -> Dict[str, np.ndarray]:
        """One land step driven by atmosphere fields; returns the surface
        state the atmosphere reads back (tskin, evaporation, runoff).
        """
        self._check_alive()
        if dt <= 0:
            raise ValueError("dt must be positive")
        for name, arr in (("gsw", gsw), ("glw", glw), ("precip", precip), ("t_air", t_air)):
            if np.asarray(arr).shape != (self.n_cells,):
                raise ValueError(f"{name} must have one entry per cell")
        cfg = self.config
        # The whole bucket update is pointwise over cells; dispatch it
        # through the portable kernel on the bound execution space.
        self.tskin, self.bucket, self.snow, runoff, evap, albedo = run_bucket(
            self.ctx,
            self.tskin, self.bucket, self.snow, self.land_mask,
            np.asarray(gsw, dtype=float), np.asarray(glw, dtype=float),
            np.asarray(precip, dtype=float), np.asarray(t_air, dtype=float),
            dt, cfg,
        )
        self.runoff_total += np.where(self.land_mask, runoff, 0.0)
        self.time += dt
        self.n_steps += 1
        return {
            "tskin_land": self.tskin.copy(),
            "evaporation": np.where(self.land_mask, evap, 0.0),
            "runoff": np.where(self.land_mask, runoff, 0.0),
            "snow_depth": np.where(self.land_mask, self.snow, 0.0),
            "albedo": albedo,
            "soil_wetness": np.where(
                self.land_mask, self.bucket / cfg.bucket_capacity, 0.0
            ),
        }
