"""Network containers and the two §5.2.1 architectures.

* :func:`build_tendency_cnn` — the AI tendency module: "five ResUnits
  within an 11-layer deep CNN totaling approximately 5x10^5 trainable
  parameters", convolving along the vertical column with (U, V, T, Q, P)
  input channels and tendency output channels.
* :func:`build_radiation_mlp` — the AI radiation diagnosis module: a
  "7-layer multi-layer perceptron with residual connections" taking the
  flattened column plus ``tskin`` and ``coszr`` and estimating the surface
  downward shortwave/longwave fluxes (gsw, glw); both infer tape-free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .layers import (
    Conv1d,
    Dense,
    Flatten,
    Layer,
    Parameter,
    ReLU,
    ResidualDense,
    ResUnit,
    Transpose,
    Workspace,
    _Affine,
    _Residual,
)

__all__ = ["Sequential", "build_tendency_cnn", "build_radiation_mlp"]


class Sequential(Layer):
    """A chain of layers with whole-net forward/backward and tape-free infer."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)
        self.workspace = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray, ws: Optional[Workspace] = None, relu: bool = False) -> np.ndarray:
        """``forward(x)``'s bits with no tape: activations in ``ws`` (the net's
        unless nested), a ReLU after an affine or residual layer fused into it,
        a result never aliasing a kept buffer.  One caller at a time."""
        top, ws = ws is None, self.workspace if ws is None else ws
        layers, i = self.layers + [None], 0
        while layers[i] is not None:
            fuse = isinstance(layers[i], (_Affine, _Residual)) and isinstance(layers[i + 1], ReLU)
            x = layers[i].infer(x, ws, fuse)
            i += 1 + fuse
        return x.copy(order="K") if top and ws.holds(x) else x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> List[Parameter]:
        out: List[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def n_conv_layers(self) -> int:
        """Convolution depth (the paper counts its CNN as 11 layers)."""

        def count(layer: Layer) -> int:
            if isinstance(layer, Conv1d):
                return 1
            if isinstance(layer, ResUnit):
                return 2
            if isinstance(layer, Sequential):
                return sum(count(l) for l in layer.layers)
            return 0

        return sum(count(l) for l in self.layers)


def build_tendency_cnn(
    levels: int = 30,
    in_channels: int = 5,
    out_channels: int = 4,
    width: int = 128,
    n_res_units: int = 5,
    kernel: int = 3,
) -> Sequential:
    """The AI tendency module.

    Defaults give 1 stem conv + 5 ResUnits (10 convs) = 11 conv layers and
    ~5.0x10^5 parameters at width 128 — the paper's quoted size, "chosen to
    balance predictive skill and computational cost".

    Input ``(batch, in_channels, levels)`` = (U, V, T, Q, P) columns;
    output ``(batch, out_channels, levels)`` = (dU, dV, dT, dQ) tendencies.
    The layers in between run channels-last (``(batch, levels, width)``);
    the two :class:`Transpose` views here are the only layout changes.
    """
    layers: List[Layer] = [
        Transpose(),
        Conv1d(in_channels, width, kernel, rng_key="tend.stem"),
        ReLU(),
    ]
    for i in range(n_res_units):
        layers.append(ResUnit(width, kernel, rng_key=f"tend.res{i}"))
        layers.append(ReLU())
    layers.append(Conv1d(width, out_channels, 1, rng_key="tend.head"))
    layers.append(Transpose())
    return Sequential(layers)


def build_radiation_mlp(
    levels: int = 30,
    in_channels: int = 5,
    n_extra: int = 2,
    width: int = 160,
    n_outputs: int = 2,
) -> Sequential:
    """The AI radiation diagnosis module.

    7 dense layers: input projection + 5 hidden (two residual blocks plus
    one plain hidden layer) + output head; inputs are the flattened column
    (in_channels * levels) plus ``n_extra`` scalars (tskin, coszr);
    outputs are (gsw, glw).
    """
    n_in = in_channels * levels + n_extra
    layers: List[Layer] = [
        Dense(n_in, width, rng_key="rad.in"),        # layer 1
        ReLU(),
        ResidualDense(width, rng_key="rad.res1"),    # layers 2-3
        ResidualDense(width, rng_key="rad.res2"),    # layers 4-5
        Dense(width, width, rng_key="rad.hidden"),   # layer 6
        ReLU(),
        Dense(width, n_outputs, rng_key="rad.out"),  # layer 7
    ]
    return Sequential(layers)
