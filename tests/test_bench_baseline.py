"""Tests for the JSON perf-baseline regression gate."""

import math

import pytest

from repro.bench import PerfBaseline, compare_baselines, emit


def _doc(**values):
    doc = PerfBaseline(suite="t")
    for name, (value, kind) in values.items():
        doc.record(name, value, kind=kind)
    return doc


class TestPerfBaseline:
    def test_record_validates_kind(self):
        doc = PerfBaseline(suite="t")
        with pytest.raises(ValueError, match="kind"):
            doc.record("m", 1.0, kind="vibes")

    def test_json_roundtrip(self, tmp_path):
        doc = _doc(a=(3.0, "count"), b=(0.5, "model"), c=(12.0, "wall"))
        path = doc.write(tmp_path / "BENCH_t.json")
        loaded = PerfBaseline.from_file(path)
        assert loaded.suite == "t"
        assert loaded.metrics == doc.metrics

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            PerfBaseline.from_json('{"version": 99, "suite": "t", "metrics": {}}')


class TestCompare:
    def test_identical_passes(self):
        doc = _doc(a=(3.0, "count"), w=(10.0, "wall"))
        cmp = compare_baselines(doc, doc)
        assert cmp.ok
        assert cmp.checked == 1  # wall is informational, not gated

    def test_within_tolerance_passes(self):
        cur = _doc(a=(110.0, "count"))
        base = _doc(a=(100.0, "count"))
        assert compare_baselines(cur, base, tolerance=0.15).ok

    def test_regression_fails(self):
        cur = _doc(a=(130.0, "count"))
        base = _doc(a=(100.0, "count"))
        cmp = compare_baselines(cur, base, tolerance=0.15)
        assert not cmp.ok
        assert cmp.regressions[0].name == "a"
        assert cmp.regressions[0].rel_change == pytest.approx(0.30)
        assert "REGRESSION" in cmp.report()

    def test_symmetric_catches_improvements(self):
        """An unexplained 2x 'improvement' in a count metric means the
        benchmark stopped measuring what it used to — gate it."""
        cur = _doc(a=(50.0, "count"))
        base = _doc(a=(100.0, "count"))
        assert not compare_baselines(cur, base).ok
        assert compare_baselines(cur, base, symmetric=False).ok

    def test_wall_never_gates(self):
        cur = _doc(w=(1000.0, "wall"))
        base = _doc(w=(1.0, "wall"))
        cmp = compare_baselines(cur, base)
        assert cmp.ok
        assert cmp.informational[0].name == "w"

    def test_missing_metric_fails_new_metric_passes(self):
        cur = _doc(b=(1.0, "count"))
        base = _doc(a=(1.0, "count"))
        cmp = compare_baselines(cur, base)
        assert not cmp.ok
        assert cmp.missing == ["a"]
        assert cmp.added == ["b"]

    def test_zero_baseline_handled(self):
        assert compare_baselines(_doc(a=(0.0, "count")), _doc(a=(0.0, "count"))).ok
        cmp = compare_baselines(_doc(a=(5.0, "count")), _doc(a=(0.0, "count")))
        assert not cmp.ok

    def test_speedup_gates_floor_on_multicore_host(self):
        """speedup < 1x fails iff the current doc reports >1 host core."""
        base = _doc(s=(1.8, "speedup"), **{"host.cores": (4.0, "wall")})
        slow = _doc(s=(0.7, "speedup"), **{"host.cores": (4.0, "wall")})
        cmp = compare_baselines(slow, base)
        assert not cmp.ok
        assert cmp.regressions[0].name == "s"
        assert cmp.regressions[0].baseline == 1.0  # the floor, not the old value

    def test_speedup_informational_on_single_core_host(self):
        base = _doc(s=(1.8, "speedup"), **{"host.cores": (1.0, "wall")})
        slow = _doc(s=(0.7, "speedup"), **{"host.cores": (1.0, "wall")})
        cmp = compare_baselines(slow, base)
        assert cmp.ok
        assert "s" in [d.name for d in cmp.informational]

    def test_speedup_never_compared_against_committed_value(self):
        """A 10x-better machine must not trip the symmetric drift gate."""
        base = _doc(s=(1.1, "speedup"), **{"host.cores": (16.0, "wall")})
        fast = _doc(s=(11.0, "speedup"), **{"host.cores": (16.0, "wall")})
        assert compare_baselines(fast, base).ok

    def test_speedup_without_cores_metric_is_informational(self):
        base = _doc(s=(1.5, "speedup"))
        slow = _doc(s=(0.5, "speedup"))
        assert compare_baselines(slow, base).ok

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        cur = _doc(a=(100.0, "count")).write(tmp_path / "cur.json")
        base = _doc(a=(100.0, "count")).write(tmp_path / "base.json")
        assert main(["perf-gate", str(cur), str(base)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = _doc(a=(200.0, "count")).write(tmp_path / "bad.json")
        assert main(["perf-gate", str(bad), str(base)]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestDriftKind:
    """The calibration loop's metric kind: gated on the band, never on
    the committed value, with non-finite drift always failing."""

    def test_within_band_passes(self):
        cur = _doc(d=(0.3, "drift"))
        base = _doc(d=(-0.4, "drift"))
        cmp = compare_baselines(cur, base, drift_tolerance=0.5)
        assert cmp.ok
        assert cmp.checked == 1
        assert "within" in cmp.report()

    def test_exceeding_band_fails(self):
        cmp = compare_baselines(
            _doc(d=(0.6, "drift")), _doc(d=(0.0, "drift")), drift_tolerance=0.5
        )
        assert not cmp.ok
        assert "DRIFT" in cmp.report()

    def test_band_is_symmetric(self):
        assert not compare_baselines(
            _doc(d=(-0.6, "drift")), _doc(d=(0.0, "drift")), drift_tolerance=0.5
        ).ok

    def test_boundary_exactly_met_passes(self):
        assert compare_baselines(
            _doc(d=(0.5, "drift")), _doc(d=(0.0, "drift")), drift_tolerance=0.5
        ).ok
        assert compare_baselines(
            _doc(d=(-0.5, "drift")), _doc(d=(0.0, "drift")), drift_tolerance=0.5
        ).ok

    def test_non_finite_drift_always_fails(self):
        """NaN > tol is falsy — the gate must not pass silently."""
        for bad in (math.nan, math.inf, -math.inf):
            cmp = compare_baselines(
                _doc(d=(bad, "drift")), _doc(d=(0.0, "drift")),
                drift_tolerance=1e9,
            )
            assert not cmp.ok
            assert "non-finite" in cmp.report()

    def test_never_compared_against_committed_value(self):
        """A huge committed drift is documentation, not a target: a fresh
        near-zero drift passes even though the relative change is wild."""
        cur = _doc(d=(0.001, "drift"))
        base = _doc(d=(0.45, "drift"))
        assert compare_baselines(cur, base, tolerance=0.15).ok

    def test_drift_tolerance_validated(self):
        doc = _doc(d=(0.0, "drift"))
        with pytest.raises(ValueError, match="drift_tolerance"):
            compare_baselines(doc, doc, drift_tolerance=-0.1)
        with pytest.raises(ValueError, match="drift_tolerance"):
            compare_baselines(doc, doc, drift_tolerance=math.nan)

    def test_missing_drift_metric_still_fails(self):
        cmp = compare_baselines(_doc(), _doc(d=(0.0, "drift")))
        assert not cmp.ok
        assert cmp.missing == ["d"]

    def test_cli_drift_tolerance_flag(self, tmp_path, capsys):
        from repro.cli import main

        cur = _doc(d=(0.8, "drift")).write(tmp_path / "cur.json")
        base = _doc(d=(0.0, "drift")).write(tmp_path / "base.json")
        assert main(["perf-gate", str(cur), str(base)]) == 1
        capsys.readouterr()
        assert main(["perf-gate", str(cur), str(base),
                     "--drift-tolerance", "1.0"]) == 0
        assert "within" in capsys.readouterr().out


class TestEmit:
    def test_writes_named_file_and_roundtrips(self, tmp_path, capsys):
        doc = _doc(a=(3.0, "count"))
        out = emit(doc, tmp_path)
        assert out == tmp_path / "BENCH_t.json"
        assert PerfBaseline.from_file(out).metrics == doc.metrics
        assert f"[bench-json] {out}" in capsys.readouterr().out

    def test_stamps_host_cores_once(self, tmp_path):
        doc = _doc(a=(1.0, "count"))
        emit(doc, tmp_path, echo=False)
        assert doc.metrics["host.cores"]["kind"] == "wall"
        assert doc.metrics["host.cores"]["value"] >= 1.0

    def test_respects_existing_host_cores(self, tmp_path):
        doc = _doc(**{"host.cores": (64.0, "wall")})
        emit(doc, tmp_path, echo=False)
        assert doc.metrics["host.cores"]["value"] == 64.0

    def test_stamp_host_is_the_emit_stamp(self, tmp_path):
        """A document built for an in-test gate (stamped, never emitted)
        carries the same metric set as the emitted file, so a baseline
        written by ``emit`` never reports ``host.cores`` as MISSING."""
        built = _doc(a=(1.0, "count"))
        assert built.stamp_host() is built
        emitted = _doc(a=(1.0, "count"))
        emit(emitted, tmp_path, echo=False)
        assert built.metrics == emitted.metrics
        built.stamp_host()  # idempotent
        assert built.metrics == emitted.metrics
        comparison = compare_baselines(built, PerfBaseline.from_file(tmp_path / "BENCH_t.json"))
        assert comparison.ok and not comparison.missing

    def test_host_metadata_opt_out(self, tmp_path):
        doc = _doc(a=(1.0, "count"))
        emit(doc, tmp_path, host_metadata=False, echo=False)
        assert "host.cores" not in doc.metrics
