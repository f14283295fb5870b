"""Tests for the measurement-calibrated machine model (repro calibrate).

Covers the full loop: probe measurement off the pp KernelStats
accumulators, the fit, the content-addressed CalibrationTable and its
to_file/from_file protocol, the explicit calibration= handle on the
perf models (byte-identical when absent), and the guarded drift metric
behind ``DriftReport.ok``, the band the calibration benchmark asserts.
"""

import json
import math

import pytest

from repro.machine import (
    CalibrationError,
    CalibrationTable,
    CoupledPerfModel,
    CouplingSpec,
    PerfModel,
    calibrate,
    drift,
    drift_report,
    measure_probes,
    sunway_oceanlight,
)
from repro.machine.calibration import (
    IDENTITY_CALIBRATION,
    PROBES,
    KernelCalibration,
    KernelMeasurement,
    ReferenceRates,
    _fit_line,
)
from repro.machine.perfmodel import Phase
from repro.machine.workloads import atm_workload, ocn_workload
from repro.pp import ExecutionSpace, KernelMetrics

SIZES = (256, 1_024)
REPEATS = 2


@pytest.fixture(scope="module")
def measurements():
    return measure_probes(sizes=SIZES, repeats=REPEATS)


@pytest.fixture(scope="module")
def table(measurements):
    return calibrate(sizes=SIZES, repeats=REPEATS, measurements=measurements)


def _synthetic(kernel="fma8", per_launch=1e-5, per_iter=1e-8,
               flops=16.0, bytes_=24.0):
    """A measurement whose best_s lies exactly on a known line."""
    sizes = (1_000, 10_000)
    return KernelMeasurement(
        kernel=kernel,
        sizes=sizes,
        best_s=tuple(per_launch + per_iter * n for n in sizes),
        launches=len(sizes),
        iterations=sum(sizes),
        seconds=sum(per_launch + per_iter * n for n in sizes),
        flops_per_iter=flops,
        bytes_per_iter=bytes_,
    )


def test_calibration_module_is_reachable_by_its_dotted_name():
    """The module's name is not shadowed by the function the package
    re-exports: the dotted import binds the module."""
    import types

    import repro.machine
    import repro.machine.calibration as cal

    assert isinstance(cal, types.ModuleType)
    assert repro.machine.calibrate is cal.calibrate


class TestMeasureProbes:
    def test_covers_the_portfolio(self, measurements):
        assert set(measurements) == set(PROBES) == {
            "stream", "axpy", "stencil", "fma8", "transcendental"
        }

    def test_seconds_come_from_the_accumulator(self):
        """The measured time is read back off the shared KernelStats pool —
        the same obs signal production kernels publish."""
        metrics = KernelMetrics()
        out = measure_probes(sizes=(256,), repeats=1, metrics=metrics,
                             probes={"axpy": PROBES["axpy"]})
        acc = metrics.stats("calib.axpy")
        assert acc.launches == 1
        assert acc.iterations == 256
        assert out["axpy"].seconds == acc.seconds
        assert out["axpy"].best_s[0] <= acc.seconds

    def test_launch_and_iteration_accounting(self, measurements):
        for name, m in measurements.items():
            assert m.launches == len(SIZES) * REPEATS
            assert m.iterations == sum(m.sizes) * REPEATS
            assert all(t > 0 for t in m.best_s)
            assert m.seconds >= sum(m.best_s)

    def test_mdrange_probe_rounds_to_square_and_profiles(self, measurements, record_tiles):
        m = measurements["stencil"]
        for requested, actual in zip(SIZES, m.sizes):
            side = math.isqrt(requested)
            assert actual == side * side
        assert m.tile_imbalance >= 1.0  # max/mean of real tile sizes
        # On an uneven cut it is the worst launch's max/mean of the tiles run.
        space, launches = record_tiles(ExecutionSpace("cut", lanes=3))
        got = measure_probes(space, sizes=SIZES, repeats=1, probes={"stencil": PROBES["stencil"]})
        ran = [[math.prod(shape) for shape in tiles] for tiles in launches]
        assert len(ran) == len(SIZES)
        worst = max(max(s) / (sum(s) / len(s)) for s in ran)
        assert got["stencil"].tile_imbalance == worst > 1.0

    def test_validates_inputs(self):
        with pytest.raises(CalibrationError, match="repeats"):
            measure_probes(sizes=(256,), repeats=0)
        with pytest.raises(CalibrationError, match="sizes"):
            measure_probes(sizes=())
        with pytest.raises(CalibrationError, match="sizes"):
            measure_probes(sizes=(2,))


class TestFit:
    def test_fit_line_recovers_exact_coefficients(self):
        intercept, slope = _fit_line((100, 1000), (1e-4 + 100 * 1e-7, 1e-4 + 1000 * 1e-7))
        assert intercept == pytest.approx(1e-4)
        assert slope == pytest.approx(1e-7)

    def test_fit_line_single_size_pins_intercept(self):
        intercept, slope = _fit_line((500,), (5e-4,))
        assert intercept == 0.0
        assert slope == pytest.approx(1e-6)

    def test_fit_line_noise_falls_back_to_secant(self):
        # Decreasing times (clock noise) would fit a negative slope.
        intercept, slope = _fit_line((100, 1000), (2e-4, 1e-4))
        assert intercept == 0.0
        assert slope == pytest.approx(1e-4 / 1000)

    def test_fit_line_negative_intercept_falls_back_to_secant(self):
        # The larger size is slower per point (it left the cache): the
        # joint fit has intercept < 0; clamping it alone would leave a
        # slope that over-prices both sizes.
        sizes, times = (1000, 4000), (1e-4, 6e-4)
        intercept, slope = _fit_line(sizes, times)
        assert intercept == 0.0
        assert slope == pytest.approx(6e-4 / 4000)
        assert all(slope * n <= t * 1.5 for n, t in zip(sizes, times))

    def test_compute_bound_overhead_from_synthetic_line(self):
        """fma8 at reference rates is compute-bound: 16/3.2e9 s/iter of
        flops vs 24/1.6e10 of bytes -> overhead = slope / (flops term)."""
        ref = ReferenceRates()
        m = _synthetic(per_launch=2e-5, per_iter=1e-8)
        tab = calibrate(measurements={"fma8": m}, reference=ref)
        e = tab.entries["fma8"]
        assert e.bandwidth_scale == 1.0
        assert e.per_launch_s == pytest.approx(2e-5)
        assert e.overhead_factor == pytest.approx(1e-8 / (16.0 / ref.flops))

    def test_bandwidth_bound_sets_bandwidth_scale(self):
        """stream (0 flops) is bandwidth-bound: the slope is priced as
        achieved bytes/s against the reference."""
        ref = ReferenceRates()
        m = _synthetic(kernel="stream", flops=0.0, bytes_=16.0,
                       per_launch=0.0, per_iter=2e-9)
        tab = calibrate(measurements={"stream": m}, reference=ref)
        e = tab.entries["stream"]
        achieved = 16.0 / 2e-9
        assert e.bandwidth_scale == pytest.approx(achieved / ref.mem_bw)
        assert e.overhead_factor == pytest.approx(1.0)

    def test_full_fit_produces_physical_terms(self, table):
        assert set(table.entries) == set(PROBES)
        for e in table.entries.values():
            assert e.overhead_factor > 0 and math.isfinite(e.overhead_factor)
            assert e.per_launch_s >= 0
            assert e.bandwidth_scale > 0
        assert table.meta["probe_launches"] == len(PROBES) * len(SIZES) * REPEATS

    def test_workless_probe_rejected(self):
        m = _synthetic(flops=0.0, bytes_=0.0)
        with pytest.raises(CalibrationError, match="work"):
            calibrate(measurements={"fma8": m})


class TestCalibrationEntry:
    def test_validates_terms(self):
        with pytest.raises(CalibrationError, match="overhead_factor"):
            KernelCalibration(kernel="k", overhead_factor=0.0)
        with pytest.raises(CalibrationError, match="overhead_factor"):
            KernelCalibration(kernel="k", overhead_factor=math.nan)
        with pytest.raises(CalibrationError, match="bandwidth_scale"):
            KernelCalibration(kernel="k", bandwidth_scale=-1.0)
        with pytest.raises(CalibrationError, match="per_launch_s"):
            KernelCalibration(kernel="k", per_launch_s=-1e-9)

    def test_modeled_s_is_the_calibrated_roofline(self):
        ref = ReferenceRates()
        e = KernelCalibration(kernel="k", overhead_factor=2.0,
                              per_launch_s=1e-6, bandwidth_scale=0.5,
                              flops_per_iter=2.0, bytes_per_iter=24.0)
        per_iter = max(2.0 / ref.flops, 24.0 / (ref.mem_bw * 0.5))
        assert e.modeled_s(1000, ref) == pytest.approx(1e-6 + 1000 * per_iter * 2.0)

    def test_identity_predicts_zero_for_no_work(self):
        assert IDENTITY_CALIBRATION.modeled_s(10**6, ReferenceRates()) == 0.0


class TestTable:
    def test_roundtrip_preserves_identity(self, table, tmp_path):
        path = table.to_file(tmp_path / "cal.json")
        loaded = CalibrationTable.from_file(path)
        assert loaded.table_id == table.table_id
        assert loaded.entries == table.entries
        assert loaded.reference == table.reference
        assert loaded.meta == table.meta

    def test_table_id_is_content_addressed(self, table):
        # meta rides along without affecting identity
        import dataclasses
        retagged = dataclasses.replace(table, meta={"anything": "else"})
        assert retagged.table_id == table.table_id
        # but any fit content change moves the hash
        changed = dataclasses.replace(table, machine="other-host")
        assert changed.table_id != table.table_id

    def test_tamper_detection(self, table, tmp_path):
        path = table.to_file(tmp_path / "cal.json")
        doc = json.loads(path.read_text())
        doc["entries"]["fma8"]["overhead_factor"] *= 2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(CalibrationError, match="hash mismatch"):
            CalibrationTable.from_file(path)

    def test_version_and_malformed_rejected(self, table, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"version": 99}')
        with pytest.raises(CalibrationError, match="version"):
            CalibrationTable.from_file(path)
        path.write_text("not json")
        with pytest.raises(CalibrationError, match="unreadable"):
            CalibrationTable.from_file(path)
        doc = json.loads(table.to_file(tmp_path / "ok.json").read_text())
        del doc["entries"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CalibrationError, match="malformed"):
            CalibrationTable.from_file(path)

    def test_no_save_load_aliases(self):
        """The table speaks only the unified persistence protocol."""
        assert not hasattr(CalibrationTable, "save")
        assert not hasattr(CalibrationTable, "load")

    def test_for_phase_prefers_the_kernel_tag(self, table):
        tagged = Phase(name="p", steps_per_day=1.0, flops_per_point=0.0,
                       bytes_per_point=16.0, kernel="fma8")
        assert table.for_phase(tagged) is table.entries["fma8"]

    def test_for_phase_falls_back_to_intensity(self, table):
        # 0 flops/byte is nearest the stream probe's intensity class.
        untagged = Phase(name="p", steps_per_day=1.0, flops_per_point=0.0,
                         bytes_per_point=64.0)
        assert table.for_phase(untagged) is table.entries["stream"]
        # heavy arithmetic intensity lands on the transcendental class
        hot = Phase(name="q", steps_per_day=1.0, flops_per_point=1e4,
                    bytes_per_point=8.0)
        assert table.for_phase(hot).kernel in ("transcendental", "fma8")

    def test_empty_table_is_identity(self):
        empty = CalibrationTable()
        ph = Phase(name="p", steps_per_day=1.0, flops_per_point=1.0,
                   bytes_per_point=1.0)
        assert empty.for_phase(ph) is IDENTITY_CALIBRATION

    def test_report_is_human_readable(self, table):
        text = table.report()
        assert table.table_id[:12] in text
        for name in PROBES:
            assert name in text


def _identity_table():
    """A table whose entries reproduce the uncalibrated roofline exactly
    for the phases they price (factor 1, no launch cost, reference BW)."""
    entries = {
        name: KernelCalibration(kernel=name, flops_per_iter=p.flops_per_iter,
                                bytes_per_iter=p.bytes_per_iter)
        for name, p in PROBES.items()
    }
    return CalibrationTable(entries=entries)


class TestModelThreading:
    def test_default_is_uncalibrated(self):
        model = PerfModel(machine=sunway_oceanlight())
        assert model.calibration is None

    def test_none_calibration_is_byte_identical(self):
        """calibration=None must not change a single bit of the model
        output (the PR's compatibility guarantee)."""
        w = atm_workload(100_000)
        base = PerfModel(machine=sunway_oceanlight())
        threaded = base.with_calibration(None)
        for n in (64, 1024):
            assert threaded.time_per_day(w, n) == base.time_per_day(w, n)

    def test_identity_table_reproduces_uncalibrated_exactly(self):
        w = atm_workload(100_000)
        base = PerfModel(machine=sunway_oceanlight())
        ident = base.with_calibration(_identity_table())
        for n in (64, 1024):
            got = ident.time_per_day(w, n)
            ref = base.time_per_day(w, n)
            assert got.t_compute == ref.t_compute
            assert got.total == ref.total

    def test_real_table_changes_compute_only(self, table):
        w = ocn_workload(100_000)
        base = PerfModel(machine=sunway_oceanlight())
        cal = base.with_calibration(table)
        got = cal.time_per_day(w, 256)
        ref = base.time_per_day(w, 256)
        assert got.t_compute != ref.t_compute
        assert got.t_halo == ref.t_halo
        assert got.t_collectives == ref.t_collectives

    def test_coupled_with_calibration(self, table):
        atm, ocn = atm_workload(50_000), ocn_workload(50_000)
        coupled = CoupledPerfModel(
            model1=PerfModel(machine=sunway_oceanlight()),
            model2=PerfModel(machine=sunway_oceanlight()),
            domain1=(atm,), domain2=(ocn,),
            coupling=CouplingSpec(exchanges_per_day={"a-o": 36.0},
                                  bytes_per_exchange={"a-o": 1e8}),
        )
        cal = coupled.with_calibration(table)
        assert cal.model1.calibration is table
        assert cal.model2.calibration is table
        assert cal.time_per_day(64, 64) != coupled.time_per_day(64, 64)
        back = cal.with_calibration(None)
        assert back.time_per_day(64, 64) == coupled.time_per_day(64, 64)


class TestDrift:
    def test_signed_fraction(self):
        assert drift(1.2, 1.0) == pytest.approx(0.2)
        assert drift(0.8, 1.0) == pytest.approx(-0.2)

    def test_zero_measured_zero_modeled_is_zero(self):
        assert drift(0.0, 0.0) == 0.0
        assert drift(1e-15, 1e-15) == 0.0  # below the clock floor

    def test_zero_measured_with_modeled_cost_is_inf(self):
        assert drift(1e-3, 0.0) == math.inf

    def test_non_finite_inputs_are_inf(self):
        assert drift(math.nan, 1.0) == math.inf
        assert drift(1.0, math.nan) == math.inf
        assert drift(math.inf, 1.0) == math.inf
        assert drift(-1.0, 1.0) == math.inf
        assert drift(1.0, -1.0) == math.inf

    def test_report_ok_within_band_and_boundary(self, table, measurements):
        report = drift_report(table, measurements, tolerance=1e9)
        assert report.ok
        assert not report.missing_measurements
        assert report.table_id == table.table_id
        # the boundary exactly met passes
        worst = report.worst
        exact = drift_report(table, measurements, tolerance=worst)
        assert exact.ok

    def test_report_fails_beyond_band(self, table, measurements):
        report = drift_report(table, measurements, tolerance=0.0)
        # self-drift is tiny but not exactly zero -> 0-band fails
        if report.worst > 0:
            assert not report.ok
            assert "FAIL" in report.report()

    def test_model_only_kernel_fails_the_report(self, table):
        """A kernel the table prices but the probe run no longer measures
        cannot be verified -> not ok."""
        partial = {k: m for k, m in
                   measure_probes(sizes=(256,), repeats=1).items()
                   if k != "fma8"}
        report = drift_report(table, partial, tolerance=1e9)
        assert report.missing_measurements == ("fma8",)
        assert not report.ok
        assert "not measured" in report.report()

    def test_measurement_only_kernel_is_informational(self, measurements):
        """A measured kernel absent from the table is priced by intensity
        fallback — reported, never a failure."""
        slim = calibrate(
            measurements={"axpy": measurements["axpy"]}
        )
        report = drift_report(slim, measurements, tolerance=1e9)
        assert set(report.uncalibrated) == set(PROBES) - {"axpy"}
        assert report.ok
        assert "intensity fallback" in report.report()

    def test_tolerance_validated(self, table, measurements):
        with pytest.raises(CalibrationError, match="tolerance"):
            drift_report(table, measurements, tolerance=-0.1)
        with pytest.raises(CalibrationError, match="tolerance"):
            drift_report(table, measurements, tolerance=math.nan)


class TestCalibrateCLI:
    def test_fit_writes_a_loadable_table(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "table.json"
        rc = main(["calibrate", "--out", str(out),
                   "--sizes", "256,1024", "--repeats", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "calibration table" in text
        loaded = CalibrationTable.from_file(out)
        assert set(loaded.entries) == set(PROBES)
        assert loaded.table_id[:12] in text

    def test_check_mode_reports_drift(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "table.json"
        assert main(["calibrate", "--out", str(out),
                     "--sizes", "256,1024", "--repeats", "1"]) == 0
        capsys.readouterr()
        rc = main(["calibrate", "--check", str(out),
                   "--sizes", "256,1024", "--repeats", "1",
                   "--drift-tolerance", "1e9"])
        assert rc == 0
        assert "drift report" in capsys.readouterr().out

    def test_check_fails_on_zero_band(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "table.json"
        assert main(["calibrate", "--out", str(out),
                     "--sizes", "256,1024", "--repeats", "1"]) == 0
        capsys.readouterr()
        rc = main(["calibrate", "--check", str(out),
                   "--sizes", "256,1024", "--repeats", "1",
                   "--drift-tolerance", "0"])
        report = capsys.readouterr().out
        assert rc == (0 if "worst |drift|: 0.0%" in report else 1)

    def test_bad_sizes_exit(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["calibrate", "--out", str(tmp_path / "t.json"),
                  "--sizes", "not,numbers"])

    def test_parser_owns_a_calibration_group(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["calibrate"])
        assert args.command == "calibrate"
        assert args.out == "CALIBRATION.json"
        assert args.sizes == "16384,65536"
        assert args.repeats == 3
        assert args.check is None
        assert args.drift_tolerance == 0.5
