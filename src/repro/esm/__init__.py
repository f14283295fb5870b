"""The coupled AP3ESM: configurations, driver, typhoon case, diagnostics."""

from .ap3esm import AP3ESM, AP3ESMConfig
from .ensemble import (
    BatchedPhysicsDriver,
    EnsembleConfig,
    EnsembleRun,
    LockstepAtmospheres,
)
from ..component import (
    Component,
    ComponentContext,
    default_mixed_policy,
    precision_policy,
)
from .scheduler import (
    PAPER_DOMAINS,
    TaskDomain,
    TaskDomainScheduler,
    paper_layout,
)
from .twin import first_difference, snapshot
from .config import (
    AP3ESM_CONFIGS,
    COUPLING_FREQUENCIES_PER_DAY,
    GRIST_CONFIGS,
    LICOM_CONFIGS,
    AP3ESMPairing,
    GristGridConfig,
    LicomGridConfig,
    grist_counts_from_hexagons,
    grist_counts_from_triangles,
    licom_grid_points,
)
from .diagnostics import (
    atm_snapshot,
    structure_function,
    cold_wake,
    surface_kinetic_energy,
    surface_rossby_number,
    surface_speed,
    wind_speed_10m,
)
from .typhoon import (
    HollandVortex,
    TyphoonExperiment,
    VortexFix,
    VortexTracker,
    inject_vortex,
    track_distance,
)

__all__ = [
    "AP3ESM",
    "AP3ESMConfig",
    "EnsembleConfig",
    "EnsembleRun",
    "BatchedPhysicsDriver",
    "LockstepAtmospheres",
    "Component",
    "ComponentContext",
    "default_mixed_policy",
    "precision_policy",
    "TaskDomain",
    "TaskDomainScheduler",
    "PAPER_DOMAINS",
    "paper_layout",
    "snapshot",
    "first_difference",
    "GristGridConfig",
    "LicomGridConfig",
    "AP3ESMPairing",
    "GRIST_CONFIGS",
    "LICOM_CONFIGS",
    "AP3ESM_CONFIGS",
    "COUPLING_FREQUENCIES_PER_DAY",
    "grist_counts_from_triangles",
    "grist_counts_from_hexagons",
    "licom_grid_points",
    "surface_rossby_number",
    "surface_kinetic_energy",
    "surface_speed",
    "wind_speed_10m",
    "cold_wake",
    "atm_snapshot",
    "structure_function",
    "HollandVortex",
    "inject_vortex",
    "VortexFix",
    "VortexTracker",
    "TyphoonExperiment",
    "track_distance",
]
