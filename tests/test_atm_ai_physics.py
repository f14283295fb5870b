"""Tests for the AI physics suite: training protocol, skill, and the
drop-in replacement contract (slow nets kept tiny)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.ai import split_by_days
from repro.atm import (
    AIPhysicsSuite,
    ConventionalPhysics,
    generate_training_archive,
    synthetic_columns,
)
from repro.esm import ComponentContext, precision_policy


@pytest.fixture(scope="module")
def small_archive():
    """A miniature training archive (small CNN-friendly)."""
    return generate_training_archive(
        n_days=16, steps_per_day=4, ncol_per_step=16, nlev=10
    )


@pytest.fixture(scope="module")
def trained_suite(small_archive):
    return AIPhysicsSuite.train(small_archive, epochs=40, width=32, lr=3e-3)


class TestArchive:
    def test_archive_shapes(self, small_archive):
        n = 16 * 4 * 16
        assert small_archive["x_column"].shape == (n, 5, 10)
        assert small_archive["y_tendency"].shape == (n, 4, 10)
        assert small_archive["x_radiation"].shape == (n, 5 * 10 + 2)
        assert small_archive["y_radiation"].shape == (n, 2)

    def test_archive_deterministic(self):
        a = generate_training_archive(n_days=2, steps_per_day=2, ncol_per_step=4, nlev=8)
        b = generate_training_archive(n_days=2, steps_per_day=2, ncol_per_step=4, nlev=8)
        assert np.array_equal(a["x_column"], b["x_column"])
        assert np.array_equal(a["y_tendency"], b["y_tendency"])

    def test_targets_are_conventional_physics(self, small_archive):
        """The supervision really is the conventional suite's output."""
        cols = synthetic_columns(16, 10, season=0, step=0, seed=0)
        tend = ConventionalPhysics().compute(cols, 120.0)
        assert np.allclose(small_archive["y_tendency"][:16, 2], tend.dt)
        assert np.allclose(small_archive["y_radiation"][:16, 0], tend.gsw)

    def test_seasonal_coverage(self, small_archive):
        """Radiation targets vary across the archive (seasons shift sun)."""
        gsw = small_archive["y_radiation"][:, 0]
        assert gsw.std() > 10.0


class TestTraining:
    def test_loss_decreases(self, trained_suite):
        hist = trained_suite.tendency_trainer.history["train"]
        assert hist[-1] < hist[0]

    def test_validation_tracked(self, trained_suite):
        assert len(trained_suite.tendency_trainer.history["val"]) > 0

    def test_radiation_skill_positive(self, trained_suite, small_archive):
        idx = np.arange(len(small_archive["x_radiation"]))
        skill = trained_suite.skill(small_archive, idx)
        assert skill["radiation"] > 0.5
        assert skill["tendency"] > 0.2

    def test_skill_is_per_channel(self, trained_suite, small_archive):
        """Each output channel is scored against its own mean; a module's
        R^2 is the mean of its channels' (pooling them under one mean
        would reward getting the channels' offsets apart)."""
        idx = np.arange(len(small_archive["x_column"]))
        skill = trained_suite.skill(small_archive, idx)
        for module, channels in AIPhysicsSuite.CHANNELS.items():
            per = [skill[f"{module}.{c}"] for c in channels]
            assert skill[module] == pytest.approx(np.mean(per))
        pred = trained_suite.tendency_trainer.predict(small_archive["x_column"])[:, 2]
        target = small_archive["y_tendency"][:, 2]
        r2 = 1.0 - np.sum((pred - target) ** 2) / np.sum((target - target.mean()) ** 2)
        assert skill["tendency.dt"] == pytest.approx(r2)


#: Prints the BLAS build + runtime kernel, then the SHA-256 of every
#: trained parameter (tendency CNN, then radiation MLP, ``parameters()``
#: order) of the suite the coupled-model benchmark trains for seed 0.
_TRAIN_DIGEST_SCRIPT = """
import ctypes, hashlib
import numpy as np
from repro.atm import AIPhysicsSuite, generate_training_archive

blas = "unknown"
for path in {l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l}:
    for name in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
        fn = getattr(ctypes.CDLL(path), name, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            blas = fn().decode()
            break
print(f"numpy {np.__version__} / {blas}")
archive = generate_training_archive(n_days=8, steps_per_day=4, ncol_per_step=8, nlev=30, seed=0)
suite = AIPhysicsSuite.train(archive, epochs=1, width=128, seed=0)
h = hashlib.sha256()
for trainer in (suite.tendency_trainer, suite.radiation_trainer):
    for p in trainer.model.parameters():
        h.update(p.value.tobytes())
print(h.hexdigest())
"""

#: Recorded at commit 7e65a03 (``(batch, channels, levels)`` layers, 32-row
#: GEMM block) with one BLAS thread.  Bits depend on the BLAS kernel, so
#: the digest only binds on the build it was recorded with.
_FROZEN_TRAIN = {
    "blas": "numpy 2.4.6 / OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY"
            " SkylakeX MAX_THREADS=64",
    "sha256": "56c30e2676c2470208c10d5658bda45193f89b6d4532e425d4d5fd8ac64e20eb",
}


class TestTrainingIsFrozen:
    def test_benchmark_size_training_matches_recorded_weights(self):
        """Layer rewrites must keep ``backward`` arithmetic — and the
        forward bits it trains through — exactly: same weights, byte for
        byte, as before the layers went channels-last."""
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc to identify the BLAS build")
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        blas, digest = proc.stdout.strip().splitlines()[-2:]
        if blas != _FROZEN_TRAIN["blas"]:
            pytest.skip(f"digest was recorded on another BLAS build: {blas!r}")
        assert digest == _FROZEN_TRAIN["sha256"]


class TestInference:
    def test_compute_matches_physics_interface(self, trained_suite):
        cols = synthetic_columns(16, 10, season=2, step=1)
        tend = trained_suite.compute(cols, 120.0)
        assert tend.dt.shape == (16, 10)
        assert tend.gsw.shape == (16,)
        assert np.all(tend.gsw >= 0)
        assert np.all(tend.precip >= 0)
        assert np.all((tend.cloud_fraction >= 0) & (tend.cloud_fraction <= 1))

    def test_resolution_adaptive_runs_on_other_column_counts(self, trained_suite):
        """Trained at one (horizontal) sampling, runs on any batch size —
        and, being convolutional, on any vertical extent too."""
        for ncol in (1, 5, 40):
            cols = synthetic_columns(ncol, 10, season=0, step=0)
            tend = trained_suite.compute(cols, 120.0)
            assert tend.dt.shape == (ncol, 10)

    def test_tendencies_correlate_with_truth(self, trained_suite):
        cols = synthetic_columns(64, 10, season=3, step=2, seed=99)
        truth = ConventionalPhysics().compute(cols, 120.0)
        pred = trained_suite.compute(cols, 120.0)
        # Temperature tendency correlation on unseen data.
        c = np.corrcoef(pred.dt.ravel(), truth.dt.ravel())[0, 1]
        assert c > 0.4

    def test_ai_inference_cheaper_than_conventional_per_flop_model(self, trained_suite):
        """Structural check of the cost asymmetry: AI inference is matmul
        dominated; conventional physics does multi-sweep branchy work.
        (Wall-clock comparison is done in the benchmark, not here.)"""
        n_params = trained_suite.tendency_trainer.model.n_params
        assert n_params < 2e5  # the small test net


_FIELDS = ("du", "dv", "dt", "dq", "gsw", "glw", "precip", "cloud_fraction", "shflx", "lhflx")


def _bound(suite, policy):
    """``suite`` bound to a context under the named precision policy."""
    suite.bind(ComponentContext(precision=precision_policy(policy)))
    return suite


class TestPrecisionSelectsCompute:
    """``bind`` reads the precision policy: fp32 forward passes under
    ``mixed``, the unchanged fp64 path under ``fp64`` and unbound.  Each
    test restores the module-scoped suite to fp64 on the way out."""

    @pytest.fixture
    def suite(self, trained_suite):
        yield trained_suite
        _bound(trained_suite, "fp64")

    def test_policy_selects_forward_dtype(self, suite):
        assert suite.tendency_trainer.dtype == np.float64  # unbound (or restored)
        _bound(suite, "mixed")
        assert suite.tendency_trainer.dtype == suite.radiation_trainer.dtype == np.float32
        _bound(suite, "fp64")
        assert suite.tendency_trainer.dtype == suite.radiation_trainer.dtype == np.float64

    def test_fp64_bound_equals_unbound_bytes(self, small_archive):
        """Binding an ``fp64`` context changes no output byte: a fresh
        (never bound) suite and a bound one agree field by field."""
        cols = synthetic_columns(40, 10, season=1, step=3, seed=5)
        fresh = AIPhysicsSuite.train(small_archive, epochs=2, width=16, lr=3e-3)
        unbound = fresh.compute(cols, 120.0)
        bound = _bound(fresh, "fp64").compute(cols, 120.0)
        for name in _FIELDS:
            assert getattr(bound, name).tobytes() == getattr(unbound, name).tobytes(), name

    @pytest.mark.parametrize("policy", ["fp64", "mixed"])
    def test_compute_returns_float64(self, suite, policy):
        tend = _bound(suite, policy).compute(synthetic_columns(9, 10, season=0, step=1), 120.0)
        for name in _FIELDS:
            assert getattr(tend, name).dtype == np.float64, name

    def test_mixed_outputs_within_bound_of_fp64(self, suite, small_archive):
        """Unclipped CNN and MLP outputs on held-out archive columns, fp32
        vs fp64 forward: within 1e-5 of each output's max magnitude.

        fp32 has a 6e-8 unit roundoff; the inputs reach the nets already
        normalised (O(1), the offsets stripped in fp64), and the paper-size
        (width-128) CNN measured 1.3e-6 of its output max, so 1e-5 leaves
        an order of magnitude for depth and BLAS kernel differences while
        still failing on any fp16-class or unscaled-cast regression."""
        split = split_by_days(16, 4, seed=0)
        idx = (split.test[:, None] * 16 + np.arange(16)[None, :]).ravel()
        for trainer, x in (
            (suite.tendency_trainer, small_archive["x_column"][idx]),
            (suite.radiation_trainer, small_archive["x_radiation"][idx]),
        ):
            _bound(suite, "fp64")
            ref = trainer.predict(x)
            _bound(suite, "mixed")
            got = trainer.predict(x)
            assert got.dtype == np.float64
            assert not np.array_equal(got, ref)  # really computed in fp32
            assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


class TestSerialization:
    def test_save_load_roundtrip_bitwise(self, trained_suite, tmp_path):
        path = tmp_path / "suite.npz"
        trained_suite.save(path)
        loaded = AIPhysicsSuite.load(path)
        cols = synthetic_columns(16, 10, season=2, step=1)
        a = trained_suite.compute(cols, 120.0)
        b = loaded.compute(cols, 120.0)
        assert np.array_equal(a.dt, b.dt)
        assert np.array_equal(a.gsw, b.gsw)
        assert np.array_equal(a.precip, b.precip)

    def test_roundtrip_restores_every_artifact(self, trained_suite, tmp_path):
        """Weights, both modules' normalizers, and the tendency guard-rail
        limits all survive save -> load exactly."""
        from repro.ai.serialize import state_dict

        path = tmp_path / "suite.npz"
        trained_suite.save(path)
        loaded = AIPhysicsSuite.load(path)
        for orig_t, load_t in (
            (trained_suite.tendency_trainer, loaded.tendency_trainer),
            (trained_suite.radiation_trainer, loaded.radiation_trainer),
        ):
            orig_sd = state_dict(orig_t.model)
            load_sd = state_dict(load_t.model)
            assert sorted(orig_sd) == sorted(load_sd)
            for key in orig_sd:
                assert np.array_equal(orig_sd[key], load_sd[key]), key
            assert np.array_equal(orig_t.x_norm.mean, load_t.x_norm.mean)
            assert np.array_equal(orig_t.x_norm.std, load_t.x_norm.std)
            assert np.array_equal(orig_t.y_norm.mean, load_t.y_norm.mean)
            assert np.array_equal(orig_t.y_norm.std, load_t.y_norm.std)
        assert np.array_equal(trained_suite.tendency_limits,
                              loaded.tendency_limits)

    def test_loaded_suite_batches_bitwise(self, trained_suite, tmp_path):
        """A reloaded suite keeps the cross-member batching contract: one
        stacked compute equals the per-batch computes bit-for-bit."""
        from repro.atm.columns import ColumnState

        path = tmp_path / "suite.npz"
        trained_suite.save(path)
        loaded = AIPhysicsSuite.load(path)
        batches = [synthetic_columns(n, 10, season=i, step=i, seed=i)
                   for i, n in enumerate((9, 1, 22))]
        stacked = loaded.compute(ColumnState.concat(batches), 120.0)
        parts = stacked.split([b.ncol for b in batches])
        for part, cols in zip(parts, batches):
            solo = loaded.compute(cols, 120.0)
            assert np.array_equal(part.dt, solo.dt)
            assert np.array_equal(part.gsw, solo.gsw)
            assert np.array_equal(part.precip, solo.precip)

    def test_roundtrip_keeps_conv_kernel_and_mlp_width(self, small_archive, tmp_path):
        """A suite built with a non-default CNN kernel and MLP width loads
        back with the same nets, not the default-size ones."""
        from repro.ai import Normalizer, Trainer, build_radiation_mlp, build_tendency_cnn

        suite = AIPhysicsSuite(
            tendency_trainer=Trainer(build_tendency_cnn(levels=10, width=8, n_res_units=1, kernel=5)),
            radiation_trainer=Trainer(build_radiation_mlp(levels=10, width=32)),
        )
        for trainer, x, y in ((suite.tendency_trainer, "x_column", "y_tendency"),
                              (suite.radiation_trainer, "x_radiation", "y_radiation")):
            trainer.x_norm = Normalizer.fit(small_archive[x])
            trainer.y_norm = Normalizer.fit(small_archive[y])
        path = tmp_path / "suite.npz"
        suite.save(path)
        loaded = AIPhysicsSuite.load(path)
        assert loaded.tendency_trainer.model.layers[1].kernel == 5
        assert loaded.radiation_trainer.model.layers[0].w.value.shape == (52, 32)
        cols = synthetic_columns(16, 10, season=2, step=1)
        a, b = suite.compute(cols, 120.0), loaded.compute(cols, 120.0)
        assert np.array_equal(a.dt, b.dt)
        assert np.array_equal(a.gsw, b.gsw)

    def test_untrained_suite_cannot_save(self, tmp_path):
        from repro.ai import Trainer, build_radiation_mlp, build_tendency_cnn

        fresh = AIPhysicsSuite(
            tendency_trainer=Trainer(build_tendency_cnn(levels=10, width=8, n_res_units=1)),
            radiation_trainer=Trainer(build_radiation_mlp(levels=10)),
        )
        with pytest.raises(RuntimeError, match="train"):
            fresh.save(tmp_path / "x.npz")

    def test_state_dict_shape_mismatch_detected(self):
        from repro.ai import build_tendency_cnn
        from repro.ai.serialize import load_state_dict, state_dict

        small = build_tendency_cnn(levels=10, width=8, n_res_units=1)
        big = build_tendency_cnn(levels=10, width=16, n_res_units=1)
        with pytest.raises(ValueError, match="mismatch"):
            load_state_dict(big, state_dict(small))
