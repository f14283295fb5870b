"""Tests for restart I/O: bit-exact round-trips and the restart contract
(run N+M == run N, save, load, run M)."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.atm import GristConfig, GristModel
from repro.bench import PerfBaseline
from repro.io.restart import (
    load_restart,
    lock_exclusive,
    publish_atomic,
    publish_dir,
    save_restart,
    write_atomic_text,
)
from repro.machine.calibration import CalibrationTable
from repro.ocn import LicomConfig, LicomModel
from repro.resilience import FaultPlan


class TestGenericRestart:
    def test_roundtrip_multiple_fields(self, tmp_path):
        rng = np.random.default_rng(0)
        fields = {
            "a": rng.standard_normal((10, 20)),
            "b": rng.standard_normal((3, 4, 5)),
            "c": rng.standard_normal(7),
        }
        save_restart(tmp_path, fields, scalars={"time": 123.5})
        loaded, scalars = load_restart(tmp_path)
        assert scalars["time"] == 123.5
        for name, arr in fields.items():
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].shape == arr.shape

    def test_float32_preserved(self, tmp_path):
        fields = {"x": np.arange(100, dtype=np.float32)}
        save_restart(tmp_path, fields)
        loaded, _ = load_restart(tmp_path)
        assert loaded["x"].dtype == np.float32
        assert np.array_equal(loaded["x"], fields["x"])

    def test_manifest_versioned(self, tmp_path):
        save_restart(tmp_path, {"x": np.zeros(4)})
        manifest = tmp_path / "restart.json"
        text = manifest.read_text().replace('"version": 1', '"version": 99')
        manifest.write_text(text)
        with pytest.raises(ValueError, match="version"):
            load_restart(tmp_path)


class TestAtomicPublish:
    def test_two_publishers_of_one_path_do_not_collide(self, tmp_path, monkeypatch):
        """A second publisher of the same path, running between the first
        one's write and its replace (two processes sharing a coupler
        cache that both miss one key), must not steal its temp file."""
        target = tmp_path / "x.json"
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            if not interleaved:
                interleaved.append(src)
                write_atomic_text(target, "second")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        write_atomic_text(target, "first")
        assert target.read_text() == "first"  # the last replace wins
        assert sorted(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        def write(tmp):
            tmp.write_bytes(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            publish_atomic(tmp_path / "t.npz", write)
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("writer", [
        lambda path: CalibrationTable().to_file(path),
        lambda path: FaultPlan(seed=3).to_file(path),
        lambda path: PerfBaseline("suite", {}).write(path),
    ], ids=["calibration", "fault_plan", "baseline"])
    def test_json_writer_killed_mid_write_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        """Every JSON document the program writes publishes atomically: a
        write cut off half-way leaves the previous file byte-identical."""
        target = tmp_path / "out" / "doc.json"
        writer(target)
        before = target.read_bytes()
        real_write_text = Path.write_text

        def torn_write_text(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("killed mid-write")

        monkeypatch.setattr(Path, "write_text", torn_write_text)
        with pytest.raises(OSError, match="killed mid-write"):
            writer(target)
        assert target.read_bytes() == before
        assert sorted(target.parent.iterdir()) == [target]


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestPublishDir:
    def test_failed_write_leaves_previous_set_and_no_staging(self, tmp_path):
        target = tmp_path / "set"
        publish_dir(target, lambda d: (d / "a.bin").write_bytes(b"old"))
        before = _files(target)

        def write(staging):
            (staging / "a.bin").write_bytes(b"new, half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            publish_dir(target, write)
        assert _files(target) == before
        assert sorted(tmp_path.iterdir()) == [target]

    def test_leftover_staging_is_replaced(self, tmp_path):
        target = tmp_path / "set"
        leftover = tmp_path / ".tmp-set"
        leftover.mkdir()
        (leftover / "junk.bin").write_bytes(b"crashed writer")
        assert publish_dir(target, lambda d: (d / "a.bin").write_bytes(b"x")) == target
        assert _files(target) == {"a.bin": b"x"}
        assert sorted(tmp_path.iterdir()) == [target]

    def test_existing_target_is_replaced(self, tmp_path):
        target = tmp_path / "set"
        publish_dir(target, lambda d: (d / "old.bin").write_bytes(b"old"))
        publish_dir(target, lambda d: (d / "new.bin").write_bytes(b"new"))
        assert _files(target) == {"new.bin": b"new"}
        assert sorted(tmp_path.iterdir()) == [target]

    def test_lock_exclusive_refuses_a_second_holder_until_closed(self, tmp_path):
        path = tmp_path / ".lock"
        with lock_exclusive(path):
            with pytest.raises(OSError):
                lock_exclusive(path, blocking=False)
        lock_exclusive(path, blocking=False).close()


class TestOceanRestartContract:
    def test_run_save_load_run_is_bitwise(self, tmp_path):
        def fresh():
            m = LicomModel(LicomConfig(nlon=48, nlat=32, n_levels=6))
            m.init()
            m.import_state({
                "taux": np.where(m.metrics.mask_c, 0.05, 0.0),
                "heat_flux": np.where(m.metrics.mask_c, 20.0, 0.0),
            })
            return m

        reference = fresh()
        reference.run(8)

        staged = fresh()
        staged.run(4)
        staged.save_restart(tmp_path)

        resumed = fresh()
        resumed.load_restart(tmp_path)
        assert resumed.n_steps == 4
        resumed.run(4)

        assert np.array_equal(resumed.t, reference.t)
        assert np.array_equal(resumed.s, reference.s)
        assert np.array_equal(resumed.u, reference.u)
        assert np.array_equal(resumed.bt.eta, reference.bt.eta)
        assert resumed.time == reference.time


class TestAtmRestartContract:
    def test_run_save_load_run_is_bitwise(self, tmp_path):
        def fresh():
            m = GristModel(GristConfig(level=3))
            m.init()
            return m

        reference = fresh()
        reference.run(6)

        staged = fresh()
        staged.run(3)
        staged.save_restart(tmp_path)

        resumed = fresh()
        resumed.load_restart(tmp_path)
        resumed.run(3)

        assert np.array_equal(resumed.swe.h, reference.swe.h)
        assert np.array_equal(resumed.swe.u, reference.swe.u)
        assert np.array_equal(resumed.t_col, reference.t_col)
        assert np.array_equal(resumed.tracer, reference.tracer)
        assert resumed.time == reference.time


class TestCoupledRestartContract:
    def test_coupled_run_save_load_run_is_bitwise(self, tmp_path):
        from repro.esm import AP3ESM, AP3ESMConfig, first_difference, snapshot

        def fresh():
            m = AP3ESM(AP3ESMConfig(
                atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=5
            ))
            m.init()
            return m

        reference = fresh()
        reference.run_couplings(10)

        staged = fresh()
        staged.run_couplings(5)
        staged.save_restart(tmp_path)

        resumed = fresh()
        resumed.load_restart(tmp_path)
        assert resumed.n_couplings == 5
        resumed.run_couplings(5)

        assert first_difference(snapshot(resumed), snapshot(reference)) is None
