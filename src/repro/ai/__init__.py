"""From-scratch numpy neural-network stack for the AI physics suite."""

from .layers import (
    Conv1d,
    Dense,
    Flatten,
    Layer,
    LayerNorm,
    Parameter,
    ReLU,
    ResidualDense,
    ResUnit,
    Tanh,
    Transpose,
)
from .network import Sequential, build_radiation_mlp, build_tendency_cnn
from .optim import SGD, Adam, clip_grad_norm
from .serialize import load_state_dict, state_dict
from .train import DatasetSplit, Normalizer, Trainer, mse_loss, split_by_days

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
    "Sequential",
    "build_tendency_cnn",
    "build_radiation_mlp",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "DatasetSplit",
    "split_by_days",
    "Normalizer",
    "Trainer",
    "mse_loss",
    "state_dict",
    "load_state_dict",
]
