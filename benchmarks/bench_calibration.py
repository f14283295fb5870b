"""Calibration drift benchmark: keep the machine model honest.

Fits a :class:`repro.machine.CalibrationTable` from the probe portfolio,
re-measures, and emits per-kernel modeled-vs-measured drift through the
``drift`` metric kind — the committed value in
``benchmarks/baselines/BENCH_calibration.json`` is never a target
(measurements are machine-dependent), but CI fails when |drift| leaves
the tolerance band or goes non-finite.  Deterministic structure (probe
count, launch count, tagged workload phases, table round-trip) is gated
hard like any other ``count`` metric.
"""

import pytest

from repro.bench import PerfBaseline, banner, compare_baselines, emit, format_table
from repro.machine import (
    CalibrationTable,
    calibrate,
    drift_report,
    measure_probes,
)
from repro.machine.workloads import atm_workload, ice_workload, lnd_workload, ocn_workload

BENCH_JSON = "BENCH_calibration.json"
BASELINE_DIR = __import__("pathlib").Path(__file__).parent / "baselines"

#: Wider than the count/model gate: probe timings on shared CI runners are
#: noisy, and the drift band only has to catch order-of-magnitude rot.
DRIFT_TOLERANCE = 1.0

SIZES = (16_384, 65_536)
REPEATS = 3


@pytest.fixture(scope="module")
def fit():
    """One fit + one independent re-measurement, shared by every test."""
    table = calibrate(sizes=SIZES, repeats=REPEATS)
    fresh = measure_probes(sizes=SIZES, repeats=REPEATS)
    return table, fresh


def _tagged_phases() -> int:
    workloads = (
        atm_workload(10_000),
        atm_workload(10_000, ai_physics=False),
        ocn_workload(10_000),
        ice_workload(10_000),
        lnd_workload(10_000),
    )
    return sum(
        sum(1 for ph in w.phases if ph.kernel is not None) for w in workloads
    )


def _bench_document(table: CalibrationTable, fresh, tmp_path) -> PerfBaseline:
    doc = PerfBaseline(suite="calibration")

    # Deterministic structure: gated hard.
    doc.record("calibration.kernels", len(table.entries))
    doc.record("calibration.probe_launches", table.meta["probe_launches"])
    doc.record("calibration.tagged_phases", _tagged_phases())
    roundtrip = CalibrationTable.from_file(table.to_file(tmp_path / "table.json"))
    doc.record(
        "calibration.table_roundtrip_ok",
        float(roundtrip.table_id == table.table_id),
    )

    # The loop-closing signal: modeled-vs-measured drift per kernel.
    report = drift_report(table, fresh, tolerance=DRIFT_TOLERANCE)
    for entry in report.entries:
        doc.record(f"calibration.drift.{entry.kernel}", entry.drift, kind="drift")

    # Machine-dependent context, informational only.
    doc.record("wall.worst_abs_drift", report.worst, kind="wall")
    doc.record(
        "wall.probe_total_s",
        sum(e.measured_s for e in table.entries.values()),
        kind="wall",
        unit="s",
    )
    return doc.stamp_host()


def test_table_fits_every_probe(fit):
    table, fresh = fit
    assert set(table.entries) == set(fresh)
    assert len(table.entries) == 5


def test_drift_report_covers_table(fit):
    """Every table kernel is re-measured — nothing is left unverifiable."""
    table, fresh = fit
    report = drift_report(table, fresh, tolerance=DRIFT_TOLERANCE)
    assert not report.missing_measurements
    assert not report.uncalibrated
    assert len(report.entries) == len(table.entries)


def test_report(fit, emit_report):
    table, fresh = fit
    report = drift_report(table, fresh, tolerance=DRIFT_TOLERANCE)
    rows = [
        (e.kernel, f"{e.modeled_s * 1e3:.3f}", f"{e.measured_s * 1e3:.3f}",
         f"{e.drift:+.1%}")
        for e in sorted(report.entries, key=lambda e: e.kernel)
    ]
    emit_report(
        "calibration",
        "\n".join([
            banner("Measurement-calibrated machine model (repro calibrate)"),
            table.report(),
            "",
            format_table(
                ["kernel", "modeled [ms]", "measured [ms]", "drift"], rows
            ),
            f"\nworst |drift|: {report.worst:.1%} "
            f"(band +/-{DRIFT_TOLERANCE:.0%}) -> "
            f"{'OK' if report.ok else 'FAIL'}",
        ]),
    )


def test_emit_bench_calibration_json(fit, tmp_path, report_dir):
    """Emit BENCH_calibration.json — the document the CI perf gate compares
    against benchmarks/baselines/BENCH_calibration.json."""
    table, fresh = fit
    doc = _bench_document(table, fresh, tmp_path)
    emit(doc, report_dir)


def test_gate_against_committed_baseline(fit, tmp_path):
    """The acceptance check the CI job runs: structural counts must match
    the committed baseline within 15 %, and every drift metric must sit
    inside the +/-100 % band (fresh value only — the committed drift is
    documentation, not a target)."""
    baseline_path = BASELINE_DIR / BENCH_JSON
    if not baseline_path.exists():
        pytest.skip("no committed baseline yet")
    table, fresh = fit
    doc = _bench_document(table, fresh, tmp_path)
    comparison = compare_baselines(
        doc,
        PerfBaseline.from_file(baseline_path),
        tolerance=0.15,
        drift_tolerance=DRIFT_TOLERANCE,
    )
    print("\n" + comparison.report())
    assert comparison.ok, comparison.report()
