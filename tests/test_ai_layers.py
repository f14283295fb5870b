"""Gradient checks (finite differences) and behavior tests for every layer.

Conv1d, ReLU and ResUnit are channels-last: ``(batch, levels, channels)``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.ai import (
    Conv1d,
    Dense,
    Flatten,
    LayerNorm,
    ReLU,
    ResidualDense,
    ResUnit,
    Sequential,
    Tanh,
    Transpose,
)
from repro.ai import layers as layers_mod
from repro.ai.layers import row_stable_matmul


def _loss_and_grad(layer, x):
    """Scalar loss = sum(forward(x) * c) for a fixed random c."""
    rng = np.random.default_rng(42)
    y = layer.forward(x)
    c = rng.standard_normal(y.shape)
    loss = float(np.sum(y * c))
    layer_params = layer.parameters()
    for p in layer_params:
        p.zero_grad()
    gx = layer.backward(c)
    return loss, gx, c


def _check_input_grad(layer, x, eps=1e-6, tol=1e-5):
    _, gx, c = _loss_and_grad(layer, x)
    rng = np.random.default_rng(0)
    # Probe a handful of random input entries.
    flat = x.reshape(-1)
    idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
    for i in idx:
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += eps
        xm[i] -= eps
        yp = layer.forward(xp.reshape(x.shape))
        ym = layer.forward(xm.reshape(x.shape))
        num = float(np.sum((yp - ym) * c)) / (2 * eps)
        assert num == pytest.approx(gx.reshape(-1)[i], rel=tol, abs=1e-7)


def _check_param_grads(layer, x, eps=1e-6, tol=1e-5):
    _, _, c = _loss_and_grad(layer, x)
    rng = np.random.default_rng(1)
    for p in layer.parameters():
        flat = p.value.reshape(-1)
        g = p.grad.reshape(-1)
        idx = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            yp = float(np.sum(layer.forward(x) * c))
            flat[i] = orig - eps
            ym = float(np.sum(layer.forward(x) * c))
            flat[i] = orig
            num = (yp - ym) / (2 * eps)
            assert num == pytest.approx(g[i], rel=tol, abs=1e-7)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestDense:
    def test_shapes(self, rng):
        layer = Dense(5, 3)
        y = layer.forward(rng.standard_normal((4, 5)))
        assert y.shape == (4, 3)
        assert layer.n_params == 5 * 3 + 3

    def test_gradients(self, rng):
        layer = Dense(6, 4)
        x = rng.standard_normal((3, 6))
        _check_input_grad(layer, x)
        _check_param_grads(layer, x)


#: The GEMM shapes (k, n) the AI suite really runs: CNN stem, wide conv and
#: head as im2col, then the MLP's input, hidden and output layers.
SUITE_GEMMS = [(15, 128), (384, 128), (128, 4), (152, 160), (160, 160), (160, 2)]


class TestRowStableMatmul:
    @pytest.mark.parametrize("k,n,dtype", [
        *(pytest.param(k, n, np.float64, id=f"{k}-{n}") for k, n in SUITE_GEMMS),
        *(pytest.param(k, n, np.float32, id=f"{k}-{n}-float32") for k, n in SUITE_GEMMS),
    ])
    def test_row_bits_independent_of_batch(self, k, n, dtype):
        """A row computed alone and inside 7-, 162-, 324- and 4860-row
        batches (a tail, < 1 block, > 1 block, 18 blocks + tail) has the
        same bytes — in fp64 and in the fp32 the suite computes in under
        ``precision=mixed``."""
        rng = np.random.default_rng([k, n])
        a = rng.standard_normal((4860, k)).astype(dtype)
        w = rng.standard_normal((k, n)).astype(dtype)
        full = row_stable_matmul(a, w)
        assert full.dtype == dtype
        assert full.shape == (4860, n)
        for m in (7, 162, 324):
            assert row_stable_matmul(a[:m], w).tobytes() == full[:m].tobytes()
        for i in (0, 6, 161, 255, 256, 323, 4859):
            alone = row_stable_matmul(a[i:i + 1], w)
            assert alone.tobytes() == full[i:i + 1].tobytes(), i

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 512, 700])
    def test_blocking_cases(self, m):
        """m < block, exact multiples and tail-padded sizes agree with a
        plain matmul to rounding and with each other bitwise."""
        block = layers_mod._ROW_BLOCK
        assert block == 256
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, 24))
        w = rng.standard_normal((24, 5))
        out = row_stable_matmul(a, w)
        assert np.allclose(out, a @ w, rtol=1e-13, atol=1e-13)
        padded = np.concatenate([a, np.zeros((3 * block - m, 24))])
        assert row_stable_matmul(padded, w)[:m].tobytes() == out.tobytes()

    def test_empty_batch(self):
        out = row_stable_matmul(np.zeros((0, 6)), np.ones((6, 3)))
        assert out.shape == (0, 3)

    def test_strided_weight_equals_contiguous(self):
        """Conv1d passes ``w.reshape(c_out, -1).T`` — a strided view."""
        rng = np.random.default_rng(3)
        a = rng.standard_normal((300, 384))
        w_t = rng.standard_normal((128, 384)).T
        assert not w_t.flags.c_contiguous
        out = row_stable_matmul(a, w_t)
        assert out.tobytes() == row_stable_matmul(a, np.ascontiguousarray(w_t)).tobytes()

    def test_result_dtype(self):
        a32 = np.ones((5, 4), dtype=np.float32)
        w32 = np.ones((4, 3), dtype=np.float32)
        assert row_stable_matmul(a32, w32).dtype == np.float32
        assert row_stable_matmul(a32, w32.astype(np.float64)).dtype == np.float64
        assert row_stable_matmul(a32.astype(np.float64), w32).dtype == np.float64
        assert np.array_equal(row_stable_matmul(a32, w32), np.full((5, 3), 4.0))


def _conv1d_reference(layer, x_cl):
    """The literal forward the channels-last rewrite must reproduce bit for
    bit: pad -> sliding_window_view -> strided im2col gather -> one GEMM
    (reduction channel-major, tap-minor) -> transpose -> bias, all on
    ``(batch, channels, levels)`` in the input's dtype."""
    x = np.ascontiguousarray(x_cl.transpose(0, 2, 1))
    dtype = x.dtype
    pad = layer.kernel // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, layer.kernel, axis=2)
    b, c, length, k = win.shape
    cols = win.transpose(0, 2, 1, 3).reshape(b * length, c * k)
    w_mat = layer.w.value.astype(dtype).reshape(layer.w.value.shape[0], c * k)
    out = row_stable_matmul(cols, w_mat.T)
    out = out.reshape(b, length, -1).transpose(0, 2, 1) + layer.b.value.astype(dtype)[None, :, None]
    return np.ascontiguousarray(out.transpose(0, 2, 1))


class TestConv1d:
    def test_shapes_same_padding(self, rng):
        layer = Conv1d(2, 5, kernel=3)
        y = layer.forward(rng.standard_normal((4, 30, 2)))
        assert y.shape == (4, 30, 5)

    def test_odd_kernel_required(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, kernel=2)

    def test_requires_3d(self, rng):
        with pytest.raises(ValueError):
            Conv1d(2, 2).forward(rng.standard_normal((4, 2)))

    def test_matches_numpy_correlate(self, rng):
        """Single-channel conv equals scipy-style 'same' correlation."""
        layer = Conv1d(1, 1, kernel=3)
        x = rng.standard_normal((1, 16, 1))
        w = layer.w.value[0, 0]
        y = layer.forward(x)[0, :, 0]
        ref = np.correlate(np.pad(x[0, :, 0], 1), w, mode="valid") + layer.b.value[0]
        assert np.allclose(y, ref)

    @pytest.mark.parametrize("kernel,dtype", [
        *(pytest.param(k, np.float64, id=f"{k}") for k in (1, 3, 5, 7)),
        *(pytest.param(k, np.float32, id=f"{k}-float32") for k in (1, 3, 5, 7)),
    ])
    @pytest.mark.parametrize("length", [1, 2, 30])
    @pytest.mark.parametrize("batch", [1, 9, 162, 324])
    def test_forward_bitwise_equals_reference(self, kernel, dtype, length, batch):
        """Patch blocks built per GEMM block equal the whole patch matrix's
        rows: kernels wider than a 2-level column, tails shorter than a
        block, and 9 x 30 = 270 rows, whose 256-row block boundary falls
        inside a column."""
        rng = np.random.default_rng([kernel, length, batch])
        layer = Conv1d(5, 24, kernel=kernel)
        layer.b.value[:] = rng.standard_normal(24)
        x = rng.standard_normal((batch, length, 5)).astype(dtype)
        y = layer.forward(x)
        assert y.shape == (batch, length, 24)
        assert y.dtype == dtype
        assert y.flags.c_contiguous
        assert y.tobytes() == _conv1d_reference(layer, x).tobytes()

    def test_forward_accepts_transposed_view(self, rng):
        """The CNN's stem sees the Transpose view of a (b, c, L) array."""
        layer = Conv1d(5, 8, kernel=3)
        x = rng.standard_normal((7, 5, 30)).transpose(0, 2, 1)
        assert layer.forward(x).tobytes() == _conv1d_reference(layer, x).tobytes()

    def test_wide_layer_bitwise_equals_reference(self):
        """The paper-size 128 -> 128 conv at the ensemble's 324 rows."""
        rng = np.random.default_rng(11)
        layer = Conv1d(128, 128, kernel=3)
        x = rng.standard_normal((324, 30, 128))
        assert layer.forward(x).tobytes() == _conv1d_reference(layer, x).tobytes()

    def test_forward_never_holds_the_patch_matrix(self):
        """The paper-size conv at the ensemble's 324 rows peaks at its
        output plus one block's buffers (< 2 MiB), not the 30 MB fp64
        ``(324*30, 128*3)`` patch matrix."""
        layer = Conv1d(128, 128, kernel=3)
        x = np.random.default_rng(12).standard_normal((324, 30, 128))
        tracemalloc.start()
        try:
            y = layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes + 2 * 2**20

    def test_gradients(self, rng):
        layer = Conv1d(2, 3, kernel=3)
        x = rng.standard_normal((2, 9, 2))
        _check_input_grad(layer, x)
        _check_param_grads(layer, x)

    def test_kernel1_gradients(self, rng):
        layer = Conv1d(3, 2, kernel=1)
        x = rng.standard_normal((2, 7, 3))
        _check_input_grad(layer, x)
        _check_param_grads(layer, x)


class TestActivations:
    def test_relu_forward_backward(self, rng):
        layer = ReLU()
        x = np.array([[-1.0, 0.5, 2.0]])
        assert np.array_equal(layer.forward(x), [[0.0, 0.5, 2.0]])
        g = layer.backward(np.ones_like(x))
        assert np.array_equal(g, [[0.0, 1.0, 1.0]])

    def test_relu_special_values_match_where(self):
        """Sign bit included: -0.0 -> +0.0, NaN -> 0.0, like
        ``np.where(x > 0, x, 0.0)`` — at a length that exercises both the
        SIMD body and the scalar tail of the ufunc loops."""
        specials = np.array([-1.0, -0.0, 0.0, 1.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        x = np.tile(specials, 15)[:131]
        layer = ReLU()
        y = layer.forward(x)
        assert y.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert not np.signbit(y).any()
        assert x.tobytes() == np.tile(specials, 15)[:131].tobytes()  # input untouched
        g = layer.backward(np.ones_like(x))
        assert np.array_equal(g, np.where(x > 0, 1.0, 0.0))

    def test_tanh_gradient(self, rng):
        layer = Tanh()
        x = rng.standard_normal((3, 5))
        _check_input_grad(layer, x)


class TestLayerNorm:
    def test_normalizes(self, rng):
        layer = LayerNorm(8)
        y = layer.forward(rng.standard_normal((10, 8)) * 5 + 3)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        assert np.allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_gradients(self, rng):
        layer = LayerNorm(6)
        x = rng.standard_normal((4, 6))
        _check_input_grad(layer, x, tol=1e-4)
        _check_param_grads(layer, x, tol=1e-4)


class TestResUnits:
    def test_res_unit_gradients(self, rng):
        layer = ResUnit(3, kernel=3)
        x = rng.standard_normal((2, 8, 3))
        _check_input_grad(layer, x, tol=1e-4)
        _check_param_grads(layer, x, tol=1e-4)

    def test_residual_dense_gradients(self, rng):
        layer = ResidualDense(5)
        x = rng.standard_normal((3, 5))
        _check_input_grad(layer, x, tol=1e-4)
        _check_param_grads(layer, x, tol=1e-4)

    def test_identity_at_zero_weights(self, rng):
        layer = ResUnit(2)
        layer.conv2.w.value[:] = 0.0
        layer.conv2.b.value[:] = 0.0
        x = rng.standard_normal((1, 6, 2))
        assert np.allclose(layer.forward(x), x)


class TestFlattenSequential:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.standard_normal((2, 3, 4))
        y = layer.forward(x)
        assert y.shape == (2, 12)
        assert layer.backward(y).shape == x.shape

    def test_transpose_is_a_view_both_ways(self, rng):
        layer = Transpose()
        x = rng.standard_normal((2, 3, 4))
        y = layer.forward(x)
        assert y.shape == (2, 4, 3) and np.shares_memory(x, y)
        assert np.array_equal(y, np.swapaxes(x, 1, 2))
        g = layer.backward(y)
        assert g.shape == x.shape and np.array_equal(g, x)

    def test_sequential_composes(self, rng):
        net = Sequential([Dense(4, 8), ReLU(), Dense(8, 2)])
        x = rng.standard_normal((5, 4))
        assert net.forward(x).shape == (5, 2)
        _check_input_grad(net, x, tol=1e-4)

    def test_zero_grad(self, rng):
        net = Sequential([Dense(3, 3)])
        x = rng.standard_normal((2, 3))
        net.forward(x)
        net.backward(np.ones((2, 3)))
        assert np.any(net.parameters()[0].grad != 0)
        net.zero_grad()
        assert np.all(net.parameters()[0].grad == 0)

    def test_deterministic_init(self):
        a = Dense(4, 4, rng_key="k1")
        b = Dense(4, 4, rng_key="k1")
        c = Dense(4, 4, rng_key="k2")
        assert np.array_equal(a.w.value, b.w.value)
        assert not np.array_equal(a.w.value, c.w.value)


class TestFollowsInputDtype:
    """``forward`` computes in its input's dtype: an fp32 input is never
    silently promoted to fp64 by the fp64-stored parameters."""

    @pytest.mark.parametrize("make,shape", [
        (lambda: Dense(6, 4), (9, 6)),
        (lambda: Conv1d(5, 8, kernel=3), (9, 30, 5)),
        (lambda: Conv1d(8, 4, kernel=1), (9, 30, 8)),
        (lambda: ResUnit(8), (9, 30, 8)),
        (lambda: ResidualDense(6), (9, 6)),
    ])
    def test_fp32_in_fp32_out(self, make, shape):
        layer = make()
        x = np.random.default_rng(5).standard_normal(shape)
        y64 = layer.forward(x)
        y32 = layer.forward(x.astype(np.float32))
        assert y64.dtype == np.float64
        assert y32.dtype == np.float32
        assert np.allclose(y32, y64, rtol=1e-5, atol=1e-5)
        # The stored (trained) parameters stay fp64.
        assert all(p.value.dtype == np.float64 for p in layer.parameters())

    def test_suite_nets_fp32_end_to_end(self):
        from repro.ai import build_radiation_mlp, build_tendency_cnn

        rng = np.random.default_rng(6)
        cnn = build_tendency_cnn(levels=10, width=16, n_res_units=2)
        mlp = build_radiation_mlp(levels=10)
        assert cnn.forward(rng.standard_normal((3, 5, 10)).astype(np.float32)).dtype == np.float32
        assert mlp.forward(rng.standard_normal((3, 52)).astype(np.float32)).dtype == np.float32
