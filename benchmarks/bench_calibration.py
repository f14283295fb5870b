"""Calibration drift benchmark: keep the machine model honest.

Fits a :class:`repro.machine.CalibrationTable` from the probe portfolio,
re-measures, and checks every kernel's modeled-vs-measured drift: the
drift itself is machine-dependent and never a target, but the suite fails
when any |drift| leaves the tolerance band or goes non-finite
(``DriftReport.ok``).  Deterministic structure (probe count, launch count,
tagged workload phases, table round-trip) is pinned exactly.
"""

import pytest

from repro.bench import banner, format_table
from repro.machine import (
    CalibrationTable,
    calibrate,
    drift_report,
    measure_probes,
)
from repro.machine.workloads import atm_workload, ice_workload, lnd_workload, ocn_workload

#: Probe timings on shared CI runners are noisy, and the drift band only
#: has to catch order-of-magnitude rot.
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


def test_table_fits_every_probe(fit):
    table, fresh = fit
    assert set(table.entries) == set(fresh)
    assert len(table.entries) == 5


def test_table_structure_pinned(fit, tmp_path):
    """30 probe launches, twelve kernel-tagged workload phases, and a table
    that round-trips to the same identity."""
    table, _ = fit
    assert table.meta["probe_launches"] == 30
    assert _tagged_phases() == 12
    roundtrip = CalibrationTable.from_file(table.to_file(tmp_path / "table.json"))
    assert roundtrip.table_id == table.table_id


def test_drift_report_covers_table(fit):
    """Every table kernel is re-measured — nothing is left unverifiable —
    and every drift is finite and inside the band."""
    table, fresh = fit
    report = drift_report(table, fresh, tolerance=DRIFT_TOLERANCE)
    assert not report.missing_measurements
    assert not report.uncalibrated
    assert len(report.entries) == len(table.entries)
    assert report.ok, report.report()


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
            f"probe total: {sum(e.measured_s for e in table.entries.values()):.4f} s",
        ]),
    )
