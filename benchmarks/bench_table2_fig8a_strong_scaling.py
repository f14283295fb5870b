"""Table 2 + Fig. 8a: strong scaling of OCN, ATM, and the coupled AP3ESM.

For each published curve the machine model is calibrated on the curve's
anchor endpoints; every other published point is a *prediction* and is
reported paper-vs-model.  Coupled curves compose the standalone component
calibrations (only a sync-imbalance scalar sees coupled data).  The
headline claims — 0.85 SYPD ATM@1km, 1.98 SYPD OCN@1km, 0.54 SYPD coupled
1v1, 84-184x MPE->CPE speedups, 1.2x over the GB'24 record — are asserted.
"""

import pytest

from repro.bench import (
    format_table,
    HEADLINES,
    STRONG_SCALING_CURVES,
    banner,
    coupled_curve,
    evaluate_all_curves,
    evaluate_curve,
    format_curve_result,
)


@pytest.fixture(scope="module")
def component_results():
    return evaluate_all_curves()


@pytest.fixture(scope="module")
def coupled_results():
    return {label: coupled_curve(label) for label in ("3v2", "1v1")}


def test_fig8a_report(component_results, coupled_results, emit_report):
    sections = [banner("Table 2 / Fig. 8a — strong scaling (paper vs model)")]
    for key in (
        "ocn_1km_orise_original", "ocn_1km_orise_opt",
        "ocn_2km_mpe", "ocn_2km_cpe",
        "atm_3km_mpe", "atm_3km_cpe", "atm_1km_cpe",
    ):
        sections.append(format_curve_result(component_results[key]))
    for label, result in coupled_results.items():
        sections.append(format_curve_result(result))
    emit_report("table2_fig8a_strong_scaling", "\n".join(sections))


def test_headline_atm_1km(component_results):
    """ATM 1 km: 0.85 SYPD on 34.1 M cores."""
    r = component_results["atm_1km_cpe"]
    assert r.modeled[-1] == pytest.approx(HEADLINES["atm_1km_sypd"], rel=0.01)
    assert r.resources[-1] == pytest.approx(HEADLINES["atm_1km_cores"], rel=0.01)


def test_headline_ocn_1km(component_results):
    """OCN 1 km: 1.98 SYPD on 16085 GPUs."""
    r = component_results["ocn_1km_orise_opt"]
    assert r.modeled[-1] == pytest.approx(HEADLINES["ocn_1km_sypd"], rel=0.01)
    assert r.resources[-1] == HEADLINES["ocn_1km_gpus"]


def test_headline_coupled_1v1(coupled_results):
    """Coupled 1v1: 0.54 SYPD on 37.2 M cores with 90.7 % efficiency."""
    r = coupled_results["1v1"]
    assert r.modeled[-1] == pytest.approx(HEADLINES["coupled_1v1_sypd"], rel=0.15)
    assert r.curve.published_efficiency() == pytest.approx(
        HEADLINES["coupled_1v1_efficiency"], abs=0.01
    )


def test_mpe_to_cpe_speedup_band(component_results):
    """§7.2: 'a performance acceleration ranging from 112 to 184 times'."""
    mpe = component_results["atm_3km_mpe"]
    cpe = component_results["atm_3km_cpe"]
    lo, hi = HEADLINES["mpe_to_cpe_speedup_atm"]
    small = cpe.modeled[0] / mpe.modeled[0]
    large = cpe.modeled[-1] / mpe.modeled[-1]
    assert lo * 0.8 < small < hi * 1.2
    assert lo * 0.8 < large < hi * 1.2


def test_speedup_vs_gb24_record(component_results):
    """§7.2: 'this work attains a speedup of 1.2x compared to the best
    record' at the largest ORISE scale."""
    opt = component_results["ocn_1km_orise_opt"].modeled[-1]
    rec = component_results["ocn_1km_orise_original"].modeled[-1]
    assert opt / rec == pytest.approx(HEADLINES["speedup_vs_gb24_record"], abs=0.1)


def test_interior_predictions_hold(component_results):
    for key, r in component_results.items():
        assert r.max_prediction_error() < 0.20, key


def test_benchmark_curve_evaluation(benchmark):
    """Timed kernel: one full curve calibration + evaluation."""
    curve = STRONG_SCALING_CURVES["atm_3km_cpe"]
    result = benchmark(evaluate_curve, curve)
    assert result.modeled[0] > 0


def test_all_pairings_prediction_report(emit_report):
    """Model-only completion of Table 1 -> Table 2: coupled SYPD for every
    pairing at the 3v2 run's largest scale (36.6 M cores).  The paper
    publishes only 3v2 (1.01) and 1v1 (0.54 at 37.2 M); the rest are
    predictions from the same composed calibrations."""
    from repro.bench import predict_pairing_sypd

    rows = []
    published = {"3v2": 1.01, "1v1": 0.54}
    for label in ("25v10", "10v5", "6v3", "3v2", "1v1"):
        out = predict_pairing_sypd(label, 36_553_140)
        rows.append((label, published.get(label), out["sypd"],
                     f"{out['procs_domain1']:.0f}/{out['procs_domain2']:.0f}"))
    emit_report(
        "table1_pairings_predicted",
        "\n".join([
            banner("All Table 1 pairings at 36.6 M cores (model predictions)"),
            format_table(
                ["pairing", "paper SYPD", "model SYPD", "domain split (atm/ocn)"],
                rows,
            ),
        ]),
    )
    # Monotonicity: finer coupled configurations are slower.
    sypds = [predict_pairing_sypd(l, 36_553_140)["sypd"]
             for l in ("25v10", "10v5", "6v3", "3v2", "1v1")]
    assert all(a >= b for a, b in zip(sypds, sypds[1:]))


# -- JSON perf baseline (model outputs are deterministic -> gated) -----------

BENCH_JSON = "BENCH_scaling.json"
BASELINE_DIR = __import__("pathlib").Path(__file__).parent / "baselines"


def _bench_document(component_results, coupled_results):
    from repro.bench import PerfBaseline

    doc = PerfBaseline(suite="scaling")
    for key, r in component_results.items():
        doc.record(f"sypd.{key}", r.modeled[-1], kind="model", unit="SYPD")
        doc.record(f"prediction_error.{key}", r.max_prediction_error(),
                   kind="model")
    for label, r in coupled_results.items():
        doc.record(f"sypd.coupled_{label}", r.modeled[-1],
                   kind="model", unit="SYPD")
    return doc.stamp_host()


def test_emit_bench_scaling_json(component_results, coupled_results, report_dir):
    """Emit BENCH_scaling.json for the CI perf gate."""
    from repro.bench import emit

    doc = _bench_document(component_results, coupled_results)
    emit(doc, report_dir)


def test_gate_against_committed_baseline(component_results, coupled_results):
    from repro.bench import PerfBaseline, compare_baselines

    baseline_path = BASELINE_DIR / BENCH_JSON
    if not baseline_path.exists():
        pytest.skip("no committed baseline yet")
    doc = _bench_document(component_results, coupled_results)
    comparison = compare_baselines(
        doc, PerfBaseline.from_file(baseline_path), tolerance=0.15
    )
    print("\n" + comparison.report())
    assert comparison.ok, comparison.report()
