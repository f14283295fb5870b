"""Tests for restart I/O: bit-exact round-trips and the restart contract
(run N+M == run N, save, load, run M)."""

import os

import numpy as np
import pytest

from repro.atm import GristConfig, GristModel
from repro.io.restart import (
    load_restart,
    publish_atomic,
    save_restart,
    write_atomic_text,
)
from repro.ocn import LicomConfig, LicomModel


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
