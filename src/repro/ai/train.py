"""Training harness reproducing the paper's §5.2.1 data protocol.

"The training dataset consists of 5 km GRIST atmospheric fields spanning
80 days (20 from each season). We employ a 7:1 training:test partition,
and extract three random time steps per day as a validation subset for
hyperparameter tuning ... and reducing overfitting risk."

:func:`split_by_days` implements that partition (days split 7:1,
validation = 3 random steps per training day), and :class:`Trainer` runs
minibatch training with input/output normalization (fitted on the training
split only) and loss history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..utils.rng import seeded
from .network import Sequential
from .optim import Adam, clip_grad_norm

__all__ = ["DatasetSplit", "split_by_days", "Normalizer", "Trainer", "mse_loss"]


@dataclass(frozen=True)
class DatasetSplit:
    """Index sets into a (day, step) organized sample archive."""

    train: np.ndarray
    test: np.ndarray
    validation: np.ndarray

    def __post_init__(self) -> None:
        overlap = set(self.train.tolist()) & set(self.test.tolist())
        if overlap:
            raise ValueError("train/test overlap")


def split_by_days(
    n_days: int,
    steps_per_day: int,
    train_fraction: float = 7.0 / 8.0,
    val_steps_per_day: int = 3,
    seed: int = 0,
) -> DatasetSplit:
    """The paper's 7:1 day-wise split plus per-day random validation steps.

    Splitting by *days* (not samples) avoids the temporal leakage a random
    sample split would allow between adjacent time steps.
    """
    if n_days < 2:
        raise ValueError("need at least 2 days to split")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    if val_steps_per_day > steps_per_day:
        raise ValueError("more validation steps than steps per day")
    rng = seeded("split", n_days, steps_per_day, seed)
    days = rng.permutation(n_days)
    n_train = max(1, int(round(n_days * train_fraction)))
    n_train = min(n_train, n_days - 1)
    train_days = np.sort(days[:n_train])
    test_days = np.sort(days[n_train:])

    def indices(day_list: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [d * steps_per_day + np.arange(steps_per_day) for d in day_list]
        )

    train_idx = indices(train_days)
    test_idx = indices(test_days)
    val: List[int] = []
    for d in train_days:
        steps = rng.choice(steps_per_day, size=val_steps_per_day, replace=False)
        val.extend((d * steps_per_day + s) for s in steps)
    val_idx = np.array(sorted(val), dtype=np.int64)
    train_idx = np.setdiff1d(train_idx, val_idx)
    return DatasetSplit(train=train_idx, test=test_idx, validation=val_idx)


@dataclass
class Normalizer:
    """Per-channel standardization fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(x: np.ndarray, channel_axis: int = 1) -> "Normalizer":
        axes = tuple(i for i in range(x.ndim) if i != channel_axis)
        mean = x.mean(axis=axes, keepdims=True)
        std = x.std(axis=axes, keepdims=True)
        std = np.where(std < 1e-12, 1.0, std)
        return Normalizer(mean=mean, std=std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


def mse_loss(pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. ``pred``."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return loss, grad


@dataclass
class Trainer:
    """Minibatch trainer with normalization and history tracking."""

    model: Sequential
    lr: float = 1e-3
    batch_size: int = 32
    grad_clip: float = 10.0
    seed: int = 0
    history: Dict[str, List[float]] = field(default_factory=lambda: {"train": [], "val": []})
    x_norm: Optional[Normalizer] = None
    y_norm: Optional[Normalizer] = None
    #: The forward pass's dtype in :meth:`predict` (training is always
    #: fp64).  Not a field: only a bound physics suite sets it (§5.2.3).
    dtype = np.float64

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 5,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> Dict[str, List[float]]:
        """Train; returns the loss history (normalized-space MSE)."""
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of samples")
        if len(x) == 0:
            raise ValueError("empty training set")
        self.x_norm = Normalizer.fit(x)
        self.y_norm = Normalizer.fit(y)
        xn = self.x_norm.apply(x)
        yn = self.y_norm.apply(y)
        opt = Adam(self.model.parameters(), lr=self.lr)
        rng = seeded("trainer", self.seed)
        n = len(xn)
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for s in range(0, n, self.batch_size):
                idx = order[s : s + self.batch_size]
                pred = self.model.forward(xn[idx])
                loss, grad = mse_loss(pred, yn[idx])
                self.model.zero_grad()
                self.model.backward(grad)
                clip_grad_norm(self.model.parameters(), self.grad_clip)
                opt.step()
                epoch_loss += loss
                n_batches += 1
            self.history["train"].append(epoch_loss / n_batches)
            if x_val is not None and y_val is not None and len(x_val):
                self.history["val"].append(self.evaluate(x_val, y_val))
        return self.history

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Normalized-space MSE on held-out data (tape-free, as ``predict``)."""
        assert self.x_norm is not None and self.y_norm is not None, "fit first"
        pred = self.model.infer(self.x_norm.apply(x))
        loss, _ = mse_loss(pred, self.y_norm.apply(y))
        return loss

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Physical-space predictions, a fresh float64 array, from the tape-free
        :meth:`Sequential.infer` (``forward``'s bits; one caller at a time).  Only
        the net runs in ``dtype``: the per-channel fp64 normaliser is the group scale
        of an fp32 pass — it strips the ~290 K / ~1e5 Pa offsets before the cast."""
        assert self.x_norm is not None and self.y_norm is not None, "fit first"
        xn = self.x_norm.apply(x).astype(self.dtype, copy=False)
        y = self.model.infer(xn).astype(np.float64, copy=False)
        return self.y_norm.invert(y)
