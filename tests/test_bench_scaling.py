"""Tests for the scaling-study runners and paper reference data."""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench import (
    HEADLINES,
    SOTA_MODELS,
    STRONG_SCALING_CURVES,
    calibrated_component,
    coupled_curve,
    evaluate_all_curves,
    evaluate_curve,
    format_curve_result,
    format_table,
    predict_pairing_sypd,
    resources_to_processes,
    weak_scaling_series,
    workload_for,
)
from repro.bench.scaling import paper_coupled_model


@pytest.fixture(scope="module")
def all_results():
    return evaluate_all_curves()


class TestPaperData:
    def test_every_curve_has_anchors(self):
        for key, curve in STRONG_SCALING_CURVES.items():
            assert len(curve.anchors()) >= 1, key

    def test_published_efficiencies_match_prose(self):
        """The reconstructed series must reproduce the paper's quoted
        parallel efficiencies."""
        expected = {
            "atm_3km_mpe": 0.246,
            "atm_3km_cpe": 0.403,
            "atm_1km_cpe": 0.515,
            "ocn_2km_mpe": 0.886,
            "ocn_2km_cpe": 0.494,
            "ocn_1km_orise_opt": 0.543,
            "coupled_3v2": 0.522,
            "coupled_1v1": 0.907,
        }
        for key, eff in expected.items():
            got = STRONG_SCALING_CURVES[key].published_efficiency()
            assert got == pytest.approx(eff, abs=0.02), key

    def test_mpe_cpe_speedup_band_in_data(self):
        """The published series embed the quoted 112-184x ATM speedups."""
        mpe = STRONG_SCALING_CURVES["atm_3km_mpe"].points
        cpe = STRONG_SCALING_CURVES["atm_3km_cpe"].points
        # Same node counts: 5462 nodes (32768 MPE cores vs 2129920 CPE
        # cores) and 43691 nodes.
        assert cpe[0].sypd / mpe[0].sypd == pytest.approx(112.0, rel=0.02)
        assert cpe[-1].sypd / mpe[-1].sypd == pytest.approx(184.0, rel=0.02)

    def test_orise_speedup_vs_record(self):
        opt = STRONG_SCALING_CURVES["ocn_1km_orise_opt"].points[-1].sypd
        rec = STRONG_SCALING_CURVES["ocn_1km_orise_original"].points[-1].sypd
        assert opt / rec == pytest.approx(HEADLINES["speedup_vs_gb24_record"], abs=0.05)

    def test_sota_includes_this_work(self):
        names = [m.name for m in SOTA_MODELS]
        assert any("AP3ESM 3v2" in n for n in names)
        assert sum(m.is_fit_endpoint for m in SOTA_MODELS) == 2


class TestResourceConversion:
    def test_sunway_cpe_mode_divides_by_65(self):
        curve = STRONG_SCALING_CURVES["atm_3km_cpe"]
        assert resources_to_processes(curve, 2129920) == 2129920 // 65

    def test_sunway_mpe_mode_one_core_per_process(self):
        curve = STRONG_SCALING_CURVES["atm_3km_mpe"]
        assert resources_to_processes(curve, 32768) == 32768

    def test_orise_one_process_per_gpu(self):
        curve = STRONG_SCALING_CURVES["ocn_1km_orise_opt"]
        assert resources_to_processes(curve, 4060) == 4060


class TestEvaluation:
    def test_anchors_match_exactly(self, all_results):
        for key, result in all_results.items():
            for (r, pub, mod, tag) in result.rows():
                if tag == "anchor":
                    assert mod == pytest.approx(pub, rel=1e-5), key

    def test_interior_predictions_within_20pct(self, all_results):
        """Non-anchor published points are genuine predictions; they must
        land within 20 % of the paper."""
        for key, result in all_results.items():
            assert result.max_prediction_error() < 0.20, key

    def test_modeled_efficiency_matches_published(self, all_results):
        for key, result in all_results.items():
            assert result.modeled_efficiency() == pytest.approx(
                result.curve.published_efficiency(), rel=0.05
            ), key

    def test_workloads_sized_from_table1(self):
        wl = workload_for(STRONG_SCALING_CURVES["atm_3km_cpe"])
        assert wl.columns == pytest.approx(4.2e7, rel=0.01)
        wl = workload_for(STRONG_SCALING_CURVES["ocn_2km_cpe"])
        assert wl.columns == pytest.approx(18000 * 11511 * 0.70, rel=0.01)

    def test_curve_report_renders(self, all_results):
        text = format_curve_result(all_results["atm_3km_cpe"])
        assert "3 km ATM CPE+OPT" in text
        assert "anchor" in text and "prediction" in text


class TestCoupled:
    @pytest.mark.parametrize("label", ["3v2", "1v1"])
    def test_coupled_predictions_within_35pct(self, label):
        """Coupled curves compose standalone calibrations; only the
        sync-imbalance scalar sees coupled data.  Everything must land
        within 35 % and the headline endpoints within 15 %."""
        result = coupled_curve(label)
        for pub, mod in zip(result.published, result.modeled):
            assert mod == pytest.approx(pub, rel=0.35)
        assert result.modeled[-1] == pytest.approx(result.published[-1], rel=0.15)

    def test_coupled_slower_than_atm_alone(self):
        atm = evaluate_curve(STRONG_SCALING_CURVES["atm_3km_cpe"])
        cpl = coupled_curve("3v2")
        # At 17M cores: coupled 0.71 vs ATM-alone 1.16 published.
        assert cpl.modeled[3] < atm.modeled[3]


class TestOnePricingPath:
    """One builder behind ``paper_coupled_model`` / ``coupled_curve`` /
    ``predict_pairing_sypd``: the three cannot disagree about a pairing."""

    def test_pairing_prediction_equals_coupled_curve_endpoint(self):
        got = predict_pairing_sypd("3v2", 36_553_140)["sypd"]
        assert got == coupled_curve("3v2").modeled[-1] == 0.9056829854791388

    @pytest.mark.parametrize("key", ["atm_3km_cpe", "ocn_2km_cpe"])
    def test_calibrated_component_transfers_only_the_serial_term(self, key):
        cal, fitted = calibrated_component(key)
        assert fitted == replace(
            workload_for(STRONG_SCALING_CURVES[key]),
            serial_seconds_per_day=fitted.serial_seconds_per_day,
        )
        other = fitted.scaled(0.25)
        cal2, moved = calibrated_component(key, replace(other, serial_seconds_per_day=0.0))
        assert cal2 == cal
        assert moved == other  # only serial_seconds_per_day was replaced

    def test_1v1_pairing_uses_its_own_atmosphere_curve(self):
        own = evaluate_curve(STRONG_SCALING_CURVES["atm_1km_cpe"]).compute_scale
        model = paper_coupled_model("1v1")
        assert model.model1.compute_scale == own
        assert own != evaluate_curve(STRONG_SCALING_CURVES["atm_3km_cpe"]).compute_scale
        # ... and so does the model-only Table 1 row (it transferred the
        # 3 km fit before): same components, 3v2's sync-imbalance scalar.
        same = replace(
            model,
            sync_imbalance=paper_coupled_model("3v2").sync_imbalance,
            serial_seconds=0.0,
        )
        row = predict_pairing_sypd("1v1", 36_553_140)
        n1, n2 = int(row["procs_domain1"]), int(row["procs_domain2"])
        assert (n1, n2) == same.balance_resources(36_553_140 // 65)
        assert row["sypd"] == same.predict_sypd(n1, n2)


def test_model_metrics_equal_committed_baseline_exactly(all_results):
    """Every modeled second goes through ``ProcessorSpec.roofline_s``: no
    Table 2 headline SYPD or prediction error may move by a bit."""
    want = {
        "prediction_error.atm_1km_cpe": 0.0,
        "prediction_error.atm_3km_cpe": 0.15124682464779907,
        "prediction_error.atm_3km_mpe": 0.0,
        "prediction_error.ocn_1km_orise_opt": 0.018786718266963286,
        "prediction_error.ocn_1km_orise_original": 0.03397809093265316,
        "prediction_error.ocn_2km_cpe": 0.11143666147509208,
        "prediction_error.ocn_2km_mpe": 0.17310617938357925,
        "sypd.atm_1km_cpe": 0.8500000000000003,
        "sypd.atm_3km_cpe": 1.16,
        "sypd.atm_3km_mpe": 0.006299999999999999,
        "sypd.coupled_1v1": 0.501940376537615,
        "sypd.coupled_3v2": 0.9056829854791388,
        "sypd.ocn_1km_orise_opt": 1.9800000000000002,
        "sypd.ocn_1km_orise_original": 1.7000000000000006,
        "sypd.ocn_2km_cpe": 1.5900000000000014,
        "sypd.ocn_2km_mpe": 0.018999999999999993,
    }
    got = {f"sypd.coupled_{label}": coupled_curve(label).modeled[-1] for label in ("3v2", "1v1")}
    for key, r in all_results.items():
        got[f"sypd.{key}"] = r.modeled[-1]
        got[f"prediction_error.{key}"] = r.max_prediction_error()
    assert got == want


class TestWeakScaling:
    @pytest.mark.parametrize("component", ["atm", "ocn"])
    def test_weak_efficiency_high(self, component):
        series = weak_scaling_series(component)
        assert len(series["sypd"]) == 4
        # Paper: 87.85 % (atm) / 96.57 % (ocn); the model must stay high.
        assert series["efficiency"][-1] > 0.75

    def test_ocn_weak_scaling_better_than_atm(self):
        """The paper's ordering: ocean weak-scales better (96.6 vs 87.9%)."""
        atm = weak_scaling_series("atm")["efficiency"][-1]
        ocn = weak_scaling_series("ocn")["efficiency"][-1]
        # Allow modeling noise but preserve the qualitative ordering.
        assert ocn > atm - 0.05


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1.0, None], ["x", 2.5]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "-" in lines[1]
