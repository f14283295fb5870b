"""Component workload profiles for the paper's model configurations.

These encode §6.1 of the paper into :class:`~repro.machine.perfmodel.Phase`
terms:

* **GRIST atmosphere** — dycore Δt = 8 s, tracer Δt = 30 s, model (physics)
  Δt = 120 s, 30 vertical levels; physics is either the conventional suite
  or the AI suite (whose cost is dominated by dense tensor kernels and is
  several times cheaper per column — §5.2.1).
* **LICOM ocean** — barotropic Δt = 2 s, baroclinic Δt = 20 s, tracer
  Δt = 20 s, 80 levels.  The barotropic sub-stepping is 2-D work with a
  global solver reduction per step — the scalability-limiting term.
* **CICE sea ice / land** — light phases mirroring the ocean/atmosphere
  grids (the paper: "these two components are not bottlenecks").

FLOP/byte counts per point are order-of-magnitude estimates for the
respective numerical schemes; the calibration layer absorbs the absolute
scale, so only their *ratios across phases* shape the predictions.

Each phase also carries a ``kernel`` tag naming its probe class in a
:class:`~repro.machine.calibration.CalibrationTable` (``stencil`` for the
dycore/baroclinic/EVP stencils, ``axpy`` for tracer advection, ``stream``
for the 2-D barotropic sub-stepping, ``fma8`` for dense AI-physics tensor
kernels, ``transcendental`` for column physics) — necessary because phase
*names* are not unique across workloads (ATM and OCN both have a
``tracer``).  Without a calibration table the tags are inert.
"""

from __future__ import annotations

from ..utils.units import SECONDS_PER_DAY
from .perfmodel import ComponentWorkload, Phase

__all__ = [
    "atm_workload",
    "ocn_workload",
    "ice_workload",
    "lnd_workload",
    "ATM_DYCORE_DT",
    "ATM_TRACER_DT",
    "ATM_MODEL_DT",
    "OCN_BAROTROPIC_DT",
    "OCN_BAROCLINIC_DT",
    "OCN_TRACER_DT",
]

ATM_DYCORE_DT = 8.0
ATM_TRACER_DT = 30.0
ATM_MODEL_DT = 120.0

OCN_BAROTROPIC_DT = 2.0
OCN_BAROCLINIC_DT = 20.0
OCN_TRACER_DT = 20.0


def atm_workload(
    cells: int,
    levels: int = 30,
    ai_physics: bool = True,
    name: str = "ATM",
) -> ComponentWorkload:
    """GRIST-like atmosphere workload on ``cells`` horizontal cells.

    The conventional physics suite costs ~8x the AI suite per column step:
    the AI suite replaces branch-heavy column parameterizations with a
    ~5e5-parameter CNN whose inference is dense matmul work (~2 * params /
    levels FLOPs per 3-D point) running near peak.
    """
    dycore = Phase(
        name="dycore",
        steps_per_day=SECONDS_PER_DAY / ATM_DYCORE_DT,
        flops_per_point=220.0,
        bytes_per_point=360.0,
        halo_fields=5,
        halo_width=2,
        allreduces_per_step=0.1,  # CFL check every ~10 steps
        kernel="stencil",
    )
    tracer = Phase(
        name="tracer",
        steps_per_day=SECONDS_PER_DAY / ATM_TRACER_DT,
        flops_per_point=90.0,
        bytes_per_point=160.0,
        halo_fields=2,
        halo_width=2,
        kernel="axpy",
    )
    if ai_physics:
        # ~5e5 params, 2 FLOPs/param per column, spread over `levels` points,
        # but executed as dense tensor kernels: effective cost per point is
        # low and the halo needs nothing (column-local).
        physics = Phase(
            name="ai-physics",
            steps_per_day=SECONDS_PER_DAY / ATM_MODEL_DT,
            flops_per_point=2.0 * 5.0e5 / levels / 8.0,  # tensor-kernel efficiency
            bytes_per_point=120.0,
            halo_fields=0,
            kernel="fma8",
        )
    else:
        physics = Phase(
            name="conventional-physics",
            steps_per_day=SECONDS_PER_DAY / ATM_MODEL_DT,
            flops_per_point=1.0e6 / levels,
            bytes_per_point=900.0,
            halo_fields=0,
            kernel="transcendental",
        )
    return ComponentWorkload(
        name=name,
        columns=cells,
        levels=levels,
        phases=(dycore, tracer, physics),
        point_bytes_state=30 * 8.0,
    )


def ocn_workload(
    columns: int,
    levels: int = 80,
    compressed: bool = False,
    name: str = "OCN",
) -> ComponentWorkload:
    """LICOM-like ocean workload on ``columns`` horizontal points.

    ``compressed=True`` applies the §5.2.2 non-ocean-point removal: the 3-D
    wet fraction of the tripolar grid is ~0.70 of the full box (oceans
    cover ~71 % of the surface and bathymetry removes more points at
    depth), so the same simulation runs on ~30 % fewer points.
    """
    barotropic = Phase(
        name="barotropic",
        steps_per_day=SECONDS_PER_DAY / OCN_BAROTROPIC_DT,
        # 2-D free-surface work: ~40 flops per column == 40/levels per point.
        flops_per_point=40.0 / levels,
        bytes_per_point=64.0 / levels,
        halo_fields=1,
        halo_width=1,
        allreduces_per_step=1.0,  # solver norm / stabilization each substep
        kernel="stream",
    )
    baroclinic = Phase(
        name="baroclinic",
        steps_per_day=SECONDS_PER_DAY / OCN_BAROCLINIC_DT,
        flops_per_point=180.0,
        bytes_per_point=280.0,
        halo_fields=3,
        halo_width=2,
        kernel="stencil",
    )
    tracer = Phase(
        name="tracer",
        steps_per_day=SECONDS_PER_DAY / OCN_TRACER_DT,
        flops_per_point=140.0,
        bytes_per_point=240.0,
        halo_fields=2,
        halo_width=2,
        kernel="axpy",
    )
    wl = ComponentWorkload(
        name=name,
        columns=columns,
        levels=levels,
        phases=(barotropic, baroclinic, tracer),
        point_bytes_state=40 * 8.0,
    )
    return wl.scaled(0.70) if compressed else wl


def ice_workload(columns: int, name: str = "ICE") -> ComponentWorkload:
    """CICE4-like sea-ice workload (mirrors the ocean grid, 1 level,
    thermodynamics + EVP-like dynamics at the coupling frequency)."""
    thermo = Phase(
        name="thermo",
        steps_per_day=180.0,
        flops_per_point=400.0,
        bytes_per_point=300.0,
        halo_fields=0,
        kernel="transcendental",
    )
    dyn = Phase(
        name="dynamics",
        steps_per_day=180.0,
        flops_per_point=600.0,
        bytes_per_point=400.0,
        halo_fields=2,
        halo_width=1,
        kernel="stencil",
    )
    return ComponentWorkload(name=name, columns=columns, levels=1, phases=(thermo, dyn))


def lnd_workload(columns: int, name: str = "LND") -> ComponentWorkload:
    """Bucket land model workload (atmosphere-grid land columns)."""
    step = Phase(
        name="surface",
        steps_per_day=SECONDS_PER_DAY / ATM_MODEL_DT,
        flops_per_point=300.0,
        bytes_per_point=240.0,
        halo_fields=0,
        kernel="transcendental",
    )
    return ComponentWorkload(name=name, columns=columns, levels=1, phases=(step,))
