"""Tests for the §5.2.1 architectures and the training harness."""

import tracemalloc

import numpy as np
import pytest

from repro.ai import (
    Adam,
    SGD,
    Normalizer,
    Sequential,
    Trainer,
    build_radiation_mlp,
    build_tendency_cnn,
    clip_grad_norm,
    mse_loss,
    split_by_days,
)
from repro.ai.layers import Dense


class TestArchitectures:
    def test_tendency_cnn_is_11_layers_500k_params(self):
        """Paper: 'five ResUnits within an 11-layer deep CNN totaling
        approximately 5e5 trainable parameters'."""
        net = build_tendency_cnn()
        # 1 stem + 5 ResUnits x 2 convs = 11 (the 1x1 head is a projection).
        assert net.n_conv_layers() == 11 + 1
        assert net.n_params == pytest.approx(5e5, rel=0.05)

    def test_tendency_cnn_shapes(self):
        net = build_tendency_cnn(levels=30)
        x = np.random.default_rng(0).standard_normal((3, 5, 30))
        y = net.forward(x)
        assert y.shape == (3, 4, 30)

    def test_tendency_cnn_level_independent(self):
        """Convolutional: the same net runs on any vertical extent —
        the 'resolution-adaptive' property."""
        net = build_tendency_cnn(levels=30)
        for levels in (10, 30, 50):
            x = np.zeros((1, 5, levels))
            assert net.forward(x).shape == (1, 4, levels)

    def test_radiation_mlp_shapes(self):
        net = build_radiation_mlp(levels=30)
        x = np.random.default_rng(0).standard_normal((4, 5 * 30 + 2))
        y = net.forward(x)
        assert y.shape == (4, 2)

    def test_radiation_mlp_has_7_dense_layers(self):
        net = build_radiation_mlp()

        def count(layer):
            if isinstance(layer, Dense):
                return 1
            if hasattr(layer, "fc1"):
                return 2
            if isinstance(layer, Sequential):
                return sum(count(l) for l in layer.layers)
            return 0

        assert count(net) == 7


class TestOptim:
    def test_sgd_reduces_quadratic(self):
        layer = Dense(1, 1)
        opt = SGD(layer.parameters(), lr=0.1)
        x = np.ones((8, 1))
        target = np.full((8, 1), 3.0)
        losses = []
        for _ in range(100):
            pred = layer.forward(x)
            loss, grad = mse_loss(pred, target)
            opt.zero_grad()
            layer.backward(grad)
            opt.step()
            losses.append(loss)
        assert losses[-1] < 1e-3 * losses[0] + 1e-10

    def test_adam_reduces_quadratic(self):
        layer = Dense(2, 1)
        opt = Adam(layer.parameters(), lr=0.05)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 2))
        target = x @ np.array([[1.5], [-2.0]]) + 0.3
        for _ in range(300):
            pred = layer.forward(x)
            loss, grad = mse_loss(pred, target)
            opt.zero_grad()
            layer.backward(grad)
            opt.step()
        assert loss < 1e-4

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.0)

    def test_clip_grad_norm(self):
        layer = Dense(4, 4)
        for p in layer.parameters():
            p.grad[:] = 10.0
        pre = clip_grad_norm(layer.parameters(), max_norm=1.0)
        assert pre > 1.0
        total = np.sqrt(sum(np.sum(p.grad**2) for p in layer.parameters()))
        assert total == pytest.approx(1.0, rel=1e-9)
        with pytest.raises(ValueError):
            clip_grad_norm(layer.parameters(), 0.0)


class TestSplit:
    def test_split_matches_paper_protocol(self):
        """80 days, 7:1 train:test, 3 random validation steps/day."""
        split = split_by_days(80, steps_per_day=8)
        n_test_days = len(split.test) // 8
        n_train_days = 80 - n_test_days
        assert n_train_days / n_test_days == pytest.approx(7.0, rel=0.05)
        assert len(split.validation) == n_train_days * 3
        # Disjoint.
        assert not set(split.train) & set(split.validation)
        assert not set(split.train) & set(split.test)
        assert not set(split.validation) & set(split.test)

    def test_split_day_wise_no_leakage(self):
        """All steps of a day land on the same side of the split."""
        split = split_by_days(16, steps_per_day=4)
        test_days = set(i // 4 for i in split.test)
        train_days = set(i // 4 for i in np.concatenate([split.train, split.validation]))
        assert not test_days & train_days

    def test_split_validation(self):
        with pytest.raises(ValueError):
            split_by_days(1, 4)
        with pytest.raises(ValueError):
            split_by_days(10, 4, val_steps_per_day=5)
        with pytest.raises(ValueError):
            split_by_days(10, 4, train_fraction=1.5)


class TestNormalizer:
    def test_fit_apply_invert(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 3, 10)) * np.array([1.0, 5.0, 0.1])[None, :, None]
        norm = Normalizer.fit(x)
        xn = norm.apply(x)
        assert np.allclose(xn.mean(axis=(0, 2)), 0.0, atol=1e-10)
        assert np.allclose(xn.std(axis=(0, 2)), 1.0, atol=1e-10)
        assert np.allclose(norm.invert(xn), x)

    def test_constant_channel_safe(self):
        x = np.ones((10, 2, 4))
        norm = Normalizer.fit(x)
        assert np.all(np.isfinite(norm.apply(x)))


class TestTrainer:
    def test_training_reduces_loss_small_cnn(self):
        """A small tendency CNN must fit a synthetic column mapping."""
        rng = np.random.default_rng(3)
        net = build_tendency_cnn(levels=10, width=8, n_res_units=1)
        x = rng.standard_normal((64, 5, 10))
        # Learnable target: smoothed input channels.
        y = np.stack(
            [x[:, c] + 0.5 * np.roll(x[:, c], 1, axis=-1) for c in range(4)], axis=1
        )
        trainer = Trainer(net, lr=3e-3, batch_size=16)
        hist = trainer.fit(x, y, epochs=20)
        assert hist["train"][-1] < 0.5 * hist["train"][0]

    def test_validation_tracked(self):
        rng = np.random.default_rng(4)
        net = build_radiation_mlp(levels=4, width=16)
        x = rng.standard_normal((40, 22))
        y = x[:, :2] * 2.0
        trainer = Trainer(net, lr=1e-3, batch_size=8)
        hist = trainer.fit(x[:32], y[:32], epochs=3, x_val=x[32:], y_val=y[32:])
        assert len(hist["val"]) == 3

    def test_predict_in_physical_units(self):
        rng = np.random.default_rng(5)
        net = Sequential([Dense(3, 1)])
        x = rng.standard_normal((200, 3))
        y = (x @ np.array([[2.0], [0.0], [-1.0]])) * 100.0 + 400.0
        trainer = Trainer(net, lr=3e-2, batch_size=50)
        trainer.fit(x, y, epochs=200)
        pred = trainer.predict(x)
        # R^2-style check in physical units.
        ss_res = np.sum((pred - y) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.95

    def test_fit_rejects_bad_input(self):
        trainer = Trainer(Sequential([Dense(2, 1)]))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((3, 2)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((0, 2)), np.zeros((0, 1)))


# -- tape-free inference (Sequential.infer behind Trainer.predict / evaluate) --


def _identity_trainer(net, dtype=np.float64):
    """A Trainer whose normalisers are the identity, so ``predict`` is the
    net's output (cast to fp64)."""
    trainer = Trainer(net)
    trainer.x_norm = trainer.y_norm = Normalizer(mean=0.0, std=1.0)
    trainer.dtype = dtype
    return trainer


def _tape(net):
    """Every ``_x`` / ``_y`` / ``_cache`` slot of every layer, by path."""
    out = {}

    def walk(layer, path):
        for name in ("_x", "_y", "_cache"):
            if name in vars(layer):
                out[f"{path}.{name}"] = vars(layer)[name]
        for name, sub in vars(layer).items():
            if name in ("first", "second", "act", "conv1", "conv2", "fc1", "fc2"):
                walk(sub, f"{path}.{name}")
        for i, sub in enumerate(getattr(layer, "layers", ())):
            walk(sub, f"{path}[{i}]")

    walk(net, "net")
    return out


def _random_weights(net, seed):
    rng = np.random.default_rng(seed)
    for p in net.parameters():
        p.value[...] = rng.standard_normal(p.value.shape) * (0.2 if p.value.ndim > 1 else 0.1)


def _specials(x):
    """Sprinkle NaN, +-inf and -0.0 through ``x`` (in place)."""
    flat = x.reshape(-1)
    flat[::37], flat[5::41], flat[7::43], flat[11::47] = np.nan, np.inf, -np.inf, -0.0
    return x


def test_predict_is_forward_bitwise():
    """``infer`` / ``predict`` reproduce ``forward``'s bytes at row counts
    that give a lone tail block (1, 7), a full block plus a tail (9 x 30 =
    270 rows) and block edges cutting through a column (162, 324), in both
    dtypes, through NaN / +-inf / -0.0 inputs and mixed row counts."""
    rng = np.random.default_rng(11)
    cnn, mlp = build_tendency_cnn(), build_radiation_mlp()
    _random_weights(cnn, 1)
    _random_weights(mlp, 2)
    for dtype in (np.float32, np.float64):
        for rows in (1, 7, 9, 162, 324, 9):
            for net, shape in ((cnn, (rows, 5, 30)), (mlp, (rows, 152))):
                x = _specials(rng.standard_normal(shape).astype(dtype))
                with np.errstate(invalid="ignore"):
                    want = net.forward(x)
                    got = net.infer(x)
                    pred = _identity_trainer(net, dtype).predict(x)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (dtype, rows, shape)
                assert not net.workspace.holds(got)
                assert pred.tobytes() == want.astype(np.float64).tobytes()


def test_evaluate_matches_forward_loss():
    rng = np.random.default_rng(12)
    net = build_radiation_mlp(levels=4, width=16)
    trainer = Trainer(net, batch_size=8)
    x, y = rng.standard_normal((40, 22)), rng.standard_normal((40, 2))
    trainer.fit(x[:32], y[:32], epochs=1)
    want, _ = mse_loss(net.forward(trainer.x_norm.apply(x[32:])), trainer.y_norm.apply(y[32:]))
    assert trainer.evaluate(x[32:], y[32:]) == want


def test_predict_records_no_tape():
    net = build_tendency_cnn(levels=10, width=8, n_res_units=2)
    trainer = _identity_trainer(net)
    slots = _tape(net)
    assert slots and all(v is None for v in slots.values())
    trainer.predict(np.random.default_rng(13).standard_normal((20, 5, 10)))
    assert all(v is None for v in _tape(net).values())


def test_predict_leaves_a_training_tape_alone():
    """forward -> predict -> backward gives the grads of forward -> backward."""
    rng = np.random.default_rng(14)
    net = build_tendency_cnn(levels=10, width=8, n_res_units=2)
    _random_weights(net, 3)
    trainer = _identity_trainer(net)
    x, z = rng.standard_normal((6, 5, 10)), rng.standard_normal((40, 5, 10))
    g = rng.standard_normal((6, 4, 10))

    def grads(between):
        net.zero_grad()
        net.forward(x)
        tape = _tape(net)
        between()
        assert all(_tape(net)[k] is v for k, v in tape.items())
        gx = net.backward(g)
        return [gx] + [p.grad.copy() for p in net.parameters()]

    plain = grads(lambda: None)
    with_predict = grads(lambda: trainer.predict(z))
    for a, b in zip(plain, with_predict):
        assert a.tobytes() == b.tobytes()


def test_predict_results_never_alias():
    rng = np.random.default_rng(15)
    for net, shape in ((build_tendency_cnn(levels=10, width=8, n_res_units=1), (12, 5, 10)),
                       (build_radiation_mlp(levels=10, width=16), (12, 52))):
        trainer = _identity_trainer(net)
        a = trainer.predict(rng.standard_normal(shape))
        a_bytes = a.tobytes()
        b = trainer.predict(rng.standard_normal(shape))
        assert not np.may_share_memory(a, b) and a.tobytes() == a_bytes
        assert not net.workspace.holds(a) and not net.workspace.holds(b)


def test_kept_buffers_survive_alternating_row_counts():
    """``ens_ckpt``'s alternating 324-row batched and 162-row member calls
    reuse the buffers grown by the first large call."""
    net = build_tendency_cnn(width=16)
    trainer = _identity_trainer(net)
    rng = np.random.default_rng(16)
    trainer.predict(rng.standard_normal((324, 5, 30)))
    kept = dict(net.workspace)
    assert {"act0", "act1", "patch", "tail", "block"} <= set(kept)
    for rows in (162, 324, 162, 1, 324):
        trainer.predict(rng.standard_normal((rows, 5, 30)))
        assert all(net.workspace[k] is v for k, v in kept.items())


def test_predict_memory_is_two_kept_activations():
    """Width-128 CNN at 324 rows fp64: one activation is 324*30*128*8 B =
    9.5 MiB.  The first call peaks at <= 3 of them (the two kept ping-pong
    buffers plus block scratch); a repeat call allocates < 1 at peak and
    keeps nothing but its result.  The training pass kept ~11 (its tape)."""
    trainer = _identity_trainer(build_tendency_cnn())
    x = np.random.default_rng(17).standard_normal((324, 5, 30))
    act = 324 * 30 * 128 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        first = trainer.predict(x)
        peak_first = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        second = trainer.predict(x)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_first <= 3 * act
    assert peak - base < act
    assert now - base <= second.nbytes + 64 * 1024
    assert first.tobytes() == second.tobytes()
