"""Benchmark support: published reference data, scaling runners, reports,
and the JSON perf-baseline regression gate."""

from .baseline import (
    BaselineComparison,
    PerfBaseline,
    compare_baselines,
    emit,
)
from .paper_data import (
    CORES_PER_SUNWAY_PROCESS,
    HEADLINES,
    SOTA_MODELS,
    STRONG_SCALING_CURVES,
    WEAK_SCALING,
    ScalingCurve,
    ScalingPoint,
)
from .report import banner, format_curve_result, format_table
from .scaling import (
    CurveResult,
    calibrated_component,
    coupled_curve,
    predict_pairing_sypd,
    evaluate_all_curves,
    evaluate_curve,
    resources_to_processes,
    weak_scaling_series,
    workload_for,
)

__all__ = [
    "ScalingPoint",
    "ScalingCurve",
    "STRONG_SCALING_CURVES",
    "WEAK_SCALING",
    "SOTA_MODELS",
    "HEADLINES",
    "CORES_PER_SUNWAY_PROCESS",
    "CurveResult",
    "calibrated_component",
    "evaluate_curve",
    "evaluate_all_curves",
    "weak_scaling_series",
    "coupled_curve",
    "predict_pairing_sypd",
    "resources_to_processes",
    "workload_for",
    "format_table",
    "format_curve_result",
    "banner",
    "PerfBaseline",
    "BaselineComparison",
    "compare_baselines",
    "emit",
]
