"""Scaling-study runners: published curve -> calibrated model -> full curve.

Glue between :mod:`repro.bench.paper_data` and :mod:`repro.machine`: builds
the right machine/workload for each published curve, calibrates on the
anchor points, and evaluates the model at every published resource count
(plus optional extra points for smooth figures).

There is one route from a published curve to a priced model:
:func:`calibrated_component` fits a standalone curve, and
:func:`_pairing_model` composes two such fits into the coupled model that
:func:`paper_coupled_model`, :func:`coupled_curve` and
:func:`predict_pairing_sypd` all evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..machine import (
    ComponentWorkload,
    CoupledPerfModel,
    CouplingSpec,
    PerfModel,
    atm_workload,
    ocn_workload,
    orise,
    sunway_oceanlight,
)
from ..esm.config import (
    AP3ESM_CONFIGS,
    COUPLING_FREQUENCIES_PER_DAY,
    GRIST_CONFIGS,
    LICOM_CONFIGS,
    GristGridConfig,
    LicomGridConfig,
)
from ..esm.scheduler import paper_layout
from .paper_data import (
    CORES_PER_SUNWAY_PROCESS,
    STRONG_SCALING_CURVES,
    ScalingCurve,
    WEAK_SCALING,
)

__all__ = [
    "CurveResult",
    "resources_to_processes",
    "workload_for",
    "calibrated_component",
    "evaluate_curve",
    "evaluate_all_curves",
    "weak_scaling_series",
    "coupled_curve",
    "paper_coupled_model",
    "paper_degraded_estimate",
    "predict_pairing_sypd",
]


def resources_to_processes(curve: ScalingCurve, resources: float) -> int:
    """Published resource counts -> model process counts."""
    if curve.machine == "orise":
        return max(1, int(resources))              # one process per GPU
    if curve.mode == "host":
        return max(1, int(resources))              # MPE-only: 1 core each
    return max(1, int(resources) // CORES_PER_SUNWAY_PROCESS)


def _atm_grid_workload(cfg: GristGridConfig) -> ComponentWorkload:
    """Workload columns of a GRIST row = hexagon cells (Table 1's 1-km row
    counts triangles, whose hexagons are its vertices)."""
    cells = cfg.cells if cfg.convention == "hexagon" else cfg.vertices
    return atm_workload(int(cells), cfg.levels)


def _ocn_grid_workload(cfg: LicomGridConfig, compressed: bool = True) -> ComponentWorkload:
    return ocn_workload(cfg.nlon * cfg.nlat, cfg.levels, compressed=compressed)


def workload_for(curve: ScalingCurve) -> ComponentWorkload:
    """The grid-sized workload behind a published curve."""
    res = float(curve.resolution_label.split()[0])
    if curve.component == "atm":
        return _atm_grid_workload(GRIST_CONFIGS[res])
    if curve.component == "ocn":
        compressed = "opt" in curve.key or curve.mode == "accelerated"
        return _ocn_grid_workload(LICOM_CONFIGS[res], compressed)
    raise ValueError(f"no single-component workload for {curve.component!r}")


def calibrated_component(
    curve_key: str,
    workload: Optional[ComponentWorkload] = None,
    imbalance_cv: float = 0.0,
) -> Tuple[PerfModel, ComponentWorkload]:
    """The model calibrated on a published standalone curve's anchors.

    Returns the calibrated :class:`PerfModel` and the curve's own workload
    carrying the fitted serial term; pass ``workload`` to transfer the fit
    to another grid (it comes back with only ``serial_seconds_per_day``
    replaced).
    """
    curve = STRONG_SCALING_CURVES[curve_key]
    machine = sunway_oceanlight() if curve.machine == "sunway" else orise()
    model = PerfModel(machine, mode=curve.mode, imbalance_cv=imbalance_cv)
    anchors = [(resources_to_processes(curve, p.resources), p.sypd) for p in curve.anchors()]
    cal, fitted = model.calibrated(workload_for(curve), anchors)
    if workload is None:
        return cal, fitted
    return cal, replace(workload, serial_seconds_per_day=fitted.serial_seconds_per_day)


@dataclass
class CurveResult:
    """Published-vs-modeled series for one curve."""

    curve: ScalingCurve
    resources: List[float]
    published: List[Optional[float]]
    modeled: List[float]
    anchors: List[bool]
    compute_scale: float
    serial_seconds: float
    sync_imbalance: float = 0.0

    def rows(self) -> List[Tuple[float, Optional[float], float, str]]:
        out = []
        for r, pub, mod, anc in zip(self.resources, self.published, self.modeled, self.anchors):
            tag = "anchor" if anc else ("prediction" if pub is not None else "model-only")
            out.append((r, pub, mod, tag))
        return out

    def max_prediction_error(self) -> float:
        """Worst relative error on non-anchor published points."""
        errs = [
            abs(m - p) / p
            for p, m, a in zip(self.published, self.modeled, self.anchors)
            if p is not None and not a
        ]
        return max(errs) if errs else 0.0

    def modeled_efficiency(self) -> float:
        first, last = 0, len(self.resources) - 1
        return (self.modeled[last] / self.modeled[first]) / (
            self.resources[last] / self.resources[first]
        )


def evaluate_curve(curve: ScalingCurve, extra_resources: Optional[List[float]] = None) -> CurveResult:
    """Calibrate on the curve's anchors, evaluate everywhere."""
    cal, wl = calibrated_component(curve.key)

    extra = list(extra_resources or [])
    resources = [p.resources for p in curve.points] + extra
    return CurveResult(
        curve=curve,
        resources=resources,
        published=[p.sypd for p in curve.points] + [None] * len(extra),
        modeled=[cal.predict_sypd(wl, resources_to_processes(curve, r)) for r in resources],
        anchors=[p.anchor for p in curve.points] + [False] * len(extra),
        compute_scale=cal.compute_scale,
        serial_seconds=wl.serial_seconds_per_day,
    )


def evaluate_all_curves() -> Dict[str, CurveResult]:
    """All single-component curves (coupled ones go through
    :func:`coupled_curve`, which composes standalone calibrations)."""
    return {
        key: evaluate_curve(c)
        for key, c in STRONG_SCALING_CURVES.items()
        if c.component != "coupled"
    }


def weak_scaling_series(component: str, imbalance_cv: float = 0.0) -> Dict[str, List[float]]:
    """Fig. 8b: fixed work per node across the resolution/node ladder.

    Returns per-point modeled SYPD and the weak-scaling efficiency series
    (time-per-step at fixed per-node work, normalized to the first point).
    The component model is calibrated from the corresponding strong-scaling
    curve's anchors so the weak series is a genuine prediction.

    ``imbalance_cv`` switches on the synchronization-jitter term (expected
    max of P iid rank times) — the mechanism the paper blames for its
    Fig. 8b efficiency drop; used as a sensitivity knob by the bench.
    """
    spec = WEAK_SCALING[component]
    base_key = "atm_3km_cpe" if component == "atm" else "ocn_2km_cpe"
    cal, wl_cal = calibrated_component(base_key, imbalance_cv=imbalance_cv)

    sypd: List[float] = []
    time_per_day: List[float] = []
    for res_km, nodes in spec["ladder"]:
        procs = nodes * 6
        if component == "atm":
            wl = _atm_grid_workload(GRIST_CONFIGS[res_km])
        else:
            wl = _ocn_grid_workload(LICOM_CONFIGS[res_km])
        wl = replace(wl, serial_seconds_per_day=wl_cal.serial_seconds_per_day)
        bd = cal.time_per_day(wl, procs)
        sypd.append(bd.sypd)
        time_per_day.append(bd.total)
    # Weak efficiency: T(first) / T(n) at ~fixed work per node.
    eff = [time_per_day[0] / t for t in time_per_day]
    return {
        "resolution_km": [r for r, _ in spec["ladder"]],
        "nodes": [n for _, n in spec["ladder"]],
        "sypd": sypd,
        "efficiency": eff,
        "published_terminal_efficiency": [spec["published_efficiency"]],
    }


def _pairing_model(label: str) -> CoupledPerfModel:
    """Component-calibrated (coupled-uncalibrated) model of a Table 1 pairing.

    Both domains carry *standalone* calibrations transferred to the
    pairing's grids: the atmosphere from its own resolution's curve when
    Table 2 publishes one (1 km), else from the 3 km curve; the ocean from
    the 2 km Sunway curve (no other standalone Sunway ocean curve exists).
    """
    pairing = AP3ESM_CONFIGS[label]
    atm_key = f"atm_{pairing.atm_resolution_km:g}km_cpe"
    if atm_key not in STRONG_SCALING_CURVES:
        atm_key = "atm_3km_cpe"
    cal_a, wl_a = calibrated_component(atm_key, _atm_grid_workload(pairing.atm))
    cal_o, wl_o = calibrated_component("ocn_2km_cpe", _ocn_grid_workload(pairing.ocn))
    ocn_columns = float(pairing.ocn.nlon * pairing.ocn.nlat)
    coupling = CouplingSpec(
        exchanges_per_day=dict(COUPLING_FREQUENCIES_PER_DAY),
        bytes_per_exchange={
            "atm": float(wl_a.columns) * 8 * 8,
            "ocn": ocn_columns * 8 * 8,
            "ice": ocn_columns * 8 * 2,
        },
        fields_per_exchange={"atm": 8.0, "ocn": 8.0, "ice": 2.0},
    )
    return CoupledPerfModel.from_layout(
        paper_layout(), {"atm": wl_a, "ocn": wl_o},
        model1=cal_a, model2=cal_o, coupling=coupling,
    )


def _balanced_split(coupled: CoupledPerfModel, cores: float) -> Tuple[int, int]:
    """Published Sunway core count -> balanced (domain 1, domain 2) processes."""
    return coupled.balance_resources(max(2, int(cores) // CORES_PER_SUNWAY_PROCESS))


def paper_coupled_model(label: str) -> CoupledPerfModel:
    """The paper-calibrated coupled model for a coupled curve label
    ('3v2' or '1v1').

    The coupled model is NOT calibrated on its components' behalf: they
    carry the standalone curves' calibrations (:func:`_pairing_model`) and
    resources are split with :meth:`CoupledPerfModel.balance_resources`.
    Only the two coupled-only terms (inter-domain sync imbalance + driver
    serial time) are fitted, on the coupled curve's anchor endpoints.
    """
    curve = STRONG_SCALING_CURVES[f"coupled_{label}"]
    coupled = _pairing_model(label)
    return coupled.calibrated_coupled(
        [(*_balanced_split(coupled, p.resources), p.sypd) for p in curve.anchors()]
    )


def paper_degraded_estimate(
    lost1: int = 0, lost2: int = 0, label: str = "3v2", total_cores: float = 2_000_000
) -> Dict[str, float]:
    """Degraded-mode continuation priced on the paper-calibrated model:
    balance ``total_cores``, then dock each domain by the ranks it lost
    (clamped to leave one process per domain).  Returns the
    :meth:`CoupledPerfModel.degraded_estimate` dict."""
    coupled = paper_coupled_model(label)
    n1, n2 = _balanced_split(coupled, total_cores)
    return coupled.degraded_estimate(
        n1, n2, lost1=min(lost1, n1 - 1), lost2=min(lost2, n2 - 1)
    )


def coupled_curve(label: str) -> CurveResult:
    """AP3ESM coupled curves: :func:`paper_coupled_model` evaluated at every
    published point.  Interior points are pure predictions — the strongest
    test the machine model faces."""
    curve = STRONG_SCALING_CURVES[f"coupled_{label}"]
    coupled = paper_coupled_model(label)
    resources = [p.resources for p in curve.points]
    return CurveResult(
        curve=curve,
        resources=resources,
        published=[p.sypd for p in curve.points],
        modeled=[coupled.predict_sypd(*_balanced_split(coupled, r)) for r in resources],
        anchors=[p.anchor for p in curve.points],
        compute_scale=coupled.model1.compute_scale,
        serial_seconds=coupled.serial_seconds,
        sync_imbalance=coupled.sync_imbalance,
    )


def predict_pairing_sypd(label: str, total_cores: float) -> Dict[str, float]:
    """Model-only coupled SYPD for ANY Table 1 pairing (the paper publishes
    coupled numbers only for 3v2 and 1v1; this completes the table).

    Component calibrations come from the published standalone curves,
    transferred to the pairing's grid sizes (:func:`_pairing_model`); the
    sync-imbalance scalar (the coupled-only effect) comes from the 3v2
    coupled fit.
    """
    coupled = replace(
        _pairing_model(label),
        sync_imbalance=paper_coupled_model("3v2").sync_imbalance,
    )
    n1, n2 = _balanced_split(coupled, total_cores)
    return {
        "sypd": coupled.predict_sypd(n1, n2),
        "procs_domain1": float(n1),
        "procs_domain2": float(n2),
    }
