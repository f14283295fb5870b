"""Neural-network layers with manual backprop, in pure numpy.

The AI physics suite (§5.2.1) needs exactly two architectures — an
11-layer 1-D CNN with 5 ResUnits (~5x10^5 parameters) applying "a
one-dimensional convolution along the vertical column", and a 7-layer MLP
with residual connections — so this module implements the minimal layer
zoo for them: Dense, Conv1d (same-padded), ReLU/Tanh, LayerNorm, ResUnit,
and Flatten.  Every layer exposes ``forward`` (which records the tape),
``backward``, ``parameters`` and ``infer`` (``forward``'s bits, no tape);
every backward pass is verified against finite differences in the tests.

Dtype: ``forward`` computes in its input's dtype.  Parameters are stored
(and trained) in fp64; :class:`Dense` and :class:`Conv1d` cast them to an
fp32 input's dtype per call, so an fp32 forward pass stays fp32 end to end
(``astype(copy=False)`` is a no-op on the fp64 path).

Shapes: Conv1d, ReLU and ResUnit work channels-last, on ``(batch, levels,
channels)``, so a convolution's GEMM output is the next layer's input with
no transpose in between; Dense works on ``(batch, features)``.
:class:`Transpose` converts from and to the ``(batch, channels, levels)``
layout the physics suite, the training archive and saved weights use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import seeded

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "Conv1d",
    "ReLU",
    "Tanh",
    "LayerNorm",
    "ResUnit",
    "ResidualDense",
    "Flatten",
    "Transpose",
    "Workspace",
    "row_stable_matmul",
]

#: Fixed GEMM row-block size for :func:`row_stable_matmul`.  256 is the
#: largest block whose CNN and MLP outputs are byte-identical to the
#: original 32-row block on the OpenBLAS this repo is measured with (512
#: is not), so trained weights and state digests did not move with it;
#: ``tests/test_atm_ai_physics.py`` pins the trained-weight digest.
_ROW_BLOCK = 256


def row_stable_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` with a bitwise row-invariance guarantee.

    BLAS picks its kernel (and with it the per-row accumulation order)
    from the full problem shape, so ``(a @ w)[i]`` can differ in the last
    ulp between batch sizes — e.g. the small-N and single-row paths.
    Every GEMM issued here has exactly ``_ROW_BLOCK`` rows: whole blocks
    are computed straight into the result, the tail is zero-padded to a
    full block.  That pins the kernel choice, so a row's bits depend only
    on that row and ``w`` (each output element reduces over ``a``'s
    columns in BLAS's fixed order for that one shape).  This is what
    makes cross-member *batched* ensemble inference bitwise-identical to
    per-member inference.

    The loop is :func:`_blocked_matmul`'s, which :class:`Conv1d` also runs
    on patch blocks written just before each GEMM: the same shape and bytes.
    """
    out = np.empty((a.shape[0], w.shape[1]), dtype=np.result_type(a, w))
    return _blocked_matmul(a.shape[0], w, a.dtype, lambda i, n: a[i:i + n], out, Workspace())


def _blocked_matmul(m: int, w: np.ndarray, dtype, rows, out, ws, b=None, res=None, relu=False):
    """``out = A @ w`` for the ``(m, K)`` operand ``A`` handed over one block
    at a time: ``rows(i, n)`` returns its rows ``i..i+n`` (``n <= _ROW_BLOCK``).
    Each block then gets ``+= b``, ``+= res`` (a residual block's input, may
    be ``out``) and ReLU while cache-resident, in ``forward``'s order."""
    for i in range(0, m, _ROW_BLOCK):
        n = min(_ROW_BLOCK, m - i)
        a, dst = rows(i, n), out[i:i + n]
        if n < _ROW_BLOCK:
            tail = ws.view("tail", (_ROW_BLOCK, w.shape[0]), dtype)
            tail[:n], tail[n:] = a, 0.0
            a = tail
        direct = n == _ROW_BLOCK and res is None
        blk = np.matmul(a, w, out=dst if direct else ws.view("block", (len(a), w.shape[1]), out.dtype))[:n]
        if b is not None:
            blk += b
        if res is not None:
            np.add(blk, res[i:i + n], out=dst)
        elif not direct:
            dst[...] = blk
        if relu:
            np.fmax(dst, 0.0, out=dst)
            dst += 0.0
    return out


class Workspace(dict):
    """A network's kept inference buffers (one caller at a time): flat arrays
    that grow to the largest request and are viewed for smaller ones; ``act0``
    / ``act1`` ping-pong activations, ``patch`` / ``tail`` / ``block`` scratch."""

    def view(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        buf, size = self.get(name), prod(shape)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def holds(self, x: np.ndarray) -> bool:
        return any(np.may_share_memory(x, buf) for buf in self.values())

    def act(self, x: np.ndarray, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """The ping-pong activation buffer that does not hold ``x``."""
        held = np.may_share_memory(x, self.get("act0", np.empty(0)))
        return self.view("act1" if held else "act0", shape, dtype)


@dataclass
class Parameter:
    """A trainable array with its gradient accumulator."""

    value: np.ndarray
    grad: np.ndarray = field(init=False)
    name: str = ""

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Layer:
    """Base layer: stateless API contract."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return grad w.r.t. the input."""
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        return []

    def infer(self, x: np.ndarray, ws: Workspace, relu: bool = False) -> np.ndarray:
        """``forward(x)``, its tape slots restored (``ws`` / fused ``relu``: below)."""
        tape = dict(vars(self))
        try:
            return self.forward(x)
        finally:
            vars(self).update(tape)

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.parameters())


class _Affine(Layer):
    """GEMM ``_operands(x, ws) = (m, w, rows)`` + bias; ``forward`` infers into fresh buffers."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.infer(x, Workspace())
        self._x = x
        return out

    def infer(self, x, ws, relu=False, res=None):
        """Over a kept residual input ``res``, else into the other act buffer."""
        m, w, rows = self._operands(x, ws)
        res = None if res is None else res.reshape(m, -1)
        out = res if res is not None and ws.holds(res) else ws.act(x, (m, w.shape[1]), x.dtype)
        b = self.b.value.astype(x.dtype, copy=False)
        _blocked_matmul(m, w, x.dtype, rows, out, ws, b, res, relu)
        return out.reshape(x.shape[:-1] + (-1,))


class Dense(_Affine):
    """Affine layer ``y = x @ W + b``."""

    def __init__(self, n_in: int, n_out: int, rng_key: str = "dense") -> None:
        rng = seeded("ai", rng_key, n_in, n_out)
        scale = np.sqrt(2.0 / n_in)
        self.w = Parameter(rng.standard_normal((n_in, n_out)) * scale, name=f"{rng_key}.w")
        self.b = Parameter(np.zeros(n_out), name=f"{rng_key}.b")
        self._x: Optional[np.ndarray] = None

    def _operands(self, x, ws):
        return len(x), self.w.value.astype(x.dtype, copy=False), lambda i, n: x[i:i + n]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "forward before backward"
        self.w.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.w.value.T

    def parameters(self) -> List[Parameter]:
        return [self.w, self.b]


class Conv1d(_Affine):
    """Same-padded 1-D convolution over the vertical (level) axis.

    Channels-last: input ``(batch, L, c_in)`` -> output ``(batch, L,
    c_out)``; odd kernel sizes only (symmetric padding).  The weight
    keeps the ``(c_out, c_in, kernel)`` shape saved suites use.

    ``forward`` is one im2col GEMM whose ``(batch*L, c_in*kernel)`` patch
    matrix (reduction axis channel-major, tap-minor, as ``w.reshape(c_out,
    c_in*kernel)``) is never held whole: each ``_ROW_BLOCK``-row block is
    written into one reused ``(_ROW_BLOCK, c_in, kernel)`` buffer just
    before its GEMM, whose shape and operand bytes are the whole matrix's,
    so the output is bitwise too.  The GEMM result *is* the output.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int = 3, rng_key: str = "conv") -> None:
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        rng = seeded("ai", rng_key, c_in, c_out, kernel)
        scale = np.sqrt(2.0 / (c_in * kernel))
        self.w = Parameter(
            rng.standard_normal((c_out, c_in, kernel)) * scale, name=f"{rng_key}.w"
        )
        self.b = Parameter(np.zeros(c_out), name=f"{rng_key}.b")
        self.kernel = kernel
        self._x: Optional[np.ndarray] = None

    def _patch_rows(self, x: np.ndarray, ws: Workspace):
        """``rows`` for :func:`_blocked_matmul`: blocks of ``x``'s patch matrix."""
        length, k = x.shape[1], self.kernel
        flat = x.reshape(-1, x.shape[2])
        if k == 1:
            return lambda i, n: flat[i:i + n]
        buf = ws.view("patch", (_ROW_BLOCK, flat.shape[1], k), x.dtype)

        def rows(i: int, n: int) -> np.ndarray:
            for tap, shift in enumerate(range(-(k // 2), k // 2 + 1)):
                # Row r (level l) reads flat row r + shift, 0 where l + shift leaves its column (or flat).
                lo = min(max(-(i + shift), 0), n)
                hi = max(min(len(flat) - i - shift, n), lo)
                buf[lo:hi, :, tap] = flat[i + shift + lo:i + shift + hi]
                for level in range(length)[-shift:] if shift > 0 else range(length)[:-shift]:
                    buf[(level - i) % length:n:length, :, tap] = 0.0
            return buf[:n].reshape(n, -1)

        return rows

    def _operands(self, x, ws):
        if x.ndim != 3:
            raise ValueError("Conv1d expects (batch, levels, channels)")
        # One row-stable matmul with a fixed (c_in*kernel) reduction order
        # per output row.  Unlike einsum's optimizer — which may pick
        # different contraction paths at different batch sizes — this
        # keeps each row's result bit-identical whether the row is
        # computed alone or inside a larger (ensemble) batch.
        w = self.w.value.reshape(len(self.w.value), -1).T.astype(x.dtype, copy=False)
        return x.shape[0] * x.shape[1], w, self._patch_rows(x, ws)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "forward before backward"
        # Training is off every timed path, so the contractions stay in
        # (batch, channels, levels) order with a C-contiguous grad_out:
        # numpy's summation order follows the memory layout, and this is
        # the one trained weights have always come from.
        x = self._x.transpose(0, 2, 1)
        grad_out = np.ascontiguousarray(grad_out.transpose(0, 2, 1))
        pad = self.kernel // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
        win = np.lib.stride_tricks.sliding_window_view(xp, self.kernel, axis=2)
        self.w.grad += np.einsum("bclk,bol->ock", win, grad_out, optimize=True)
        self.b.grad += grad_out.sum(axis=(0, 2))
        # Input gradient: correlate grad_out with the flipped kernel.
        gp = np.pad(grad_out, ((0, 0), (0, 0), (pad, pad)))
        gwin = np.lib.stride_tricks.sliding_window_view(gp, self.kernel, axis=2)
        w_flip = self.w.value[:, :, ::-1]
        grad_in = np.einsum("bolk,ock->bcl", gwin, w_flip, optimize=True)
        return grad_in.transpose(0, 2, 1)

    def parameters(self) -> List[Parameter]:
        return [self.w, self.b]


class ReLU(Layer):
    """``max(x, 0)`` with ``-0.0 -> +0.0`` and ``NaN -> 0.0``: value-
    identical to ``np.where(x > 0, x, 0.0)``."""

    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # fmax drops the NaN operand; adding +0.0 clears the sign of a
        # -0.0 that fmax may hand through and changes nothing else.
        y = np.fmax(x, 0.0)
        y += 0.0
        self._y = y
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._y is not None
        return np.where(self._y > 0, grad_out, 0.0)


class Tanh(Layer):
    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._y is not None
        return grad_out * (1.0 - self._y**2)


class LayerNorm(Layer):
    """Normalization over the last axis with learned scale/shift."""

    def __init__(self, n_features: int, eps: float = 1e-5, rng_key: str = "ln") -> None:
        self.gamma = Parameter(np.ones(n_features), name=f"{rng_key}.gamma")
        self.beta = Parameter(np.zeros(n_features), name=f"{rng_key}.beta")
        self.eps = eps
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        self._cache = (xhat, inv, x)
        return xhat * self.gamma.value + self.beta.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        xhat, inv, x = self._cache
        n = x.shape[-1]
        # Reduce over all axes but the last for the parameter grads.
        red_axes = tuple(range(grad_out.ndim - 1))
        self.gamma.grad += (grad_out * xhat).sum(axis=red_axes)
        self.beta.grad += grad_out.sum(axis=red_axes)
        g = grad_out * self.gamma.value
        gx = (
            g - g.mean(axis=-1, keepdims=True)
            - xhat * (g * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        return gx

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]


class _Residual(Layer):
    """``y = x + second(ReLU(first(x)))``: :class:`ResUnit`, :class:`ResidualDense`."""

    def __init__(self, first: _Affine, second: _Affine) -> None:
        self.first, self.act, self.second = first, ReLU(), second

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.second.forward(self.act.forward(self.first.forward(x)))
        return np.add(out, x, out=out)

    def infer(self, x, ws, relu=False):
        return self.second.infer(self.first.infer(x, ws, relu=True), ws, relu, res=x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.first.backward(self.act.backward(self.second.backward(grad_out)))
        return grad_out + g

    def parameters(self) -> List[Parameter]:
        return self.first.parameters() + self.second.parameters()


class ResUnit(_Residual):
    """Residual unit: ``y = x + Conv(ReLU(Conv(x)))`` (two conv layers).

    Five of these plus a stem conv give the paper's "five ResUnits within
    an 11-layer deep CNN".  Channels-last like :class:`Conv1d`:
    ``(batch, L, channels)`` in and out.
    """

    def __init__(self, channels: int, kernel: int = 3, rng_key: str = "res") -> None:
        self.conv1 = Conv1d(channels, channels, kernel, rng_key=f"{rng_key}.c1")
        self.conv2 = Conv1d(channels, channels, kernel, rng_key=f"{rng_key}.c2")
        super().__init__(self.conv1, self.conv2)


class ResidualDense(_Residual):
    """Residual MLP block: ``y = x + Dense(ReLU(Dense(x)))`` — the building
    block of the 7-layer radiation MLP."""

    def __init__(self, features: int, rng_key: str = "rd") -> None:
        self.fc1 = Dense(features, features, rng_key=f"{rng_key}.fc1")
        self.fc2 = Dense(features, features, rng_key=f"{rng_key}.fc2")
        super().__init__(self.fc1, self.fc2)


class Flatten(Layer):
    """(batch, ...) -> (batch, prod(...))."""

    def __init__(self) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return grad_out.reshape(self._shape)


class Transpose(Layer):
    """Swap the last two axes: ``(batch, channels, levels)`` <->
    ``(batch, levels, channels)``.  A view both ways, no copy."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.transpose(0, 2, 1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.transpose(0, 2, 1)
