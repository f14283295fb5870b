"""Model serialization: state dicts for the numpy network stack.

Trained AI-physics suites must survive the session (the paper's suite is
trained once on the 80-day archive and then deployed everywhere), so this
module provides torch-style state dicts over the :class:`~repro.ai.layers.
Parameter` tree (``AIPhysicsSuite.save``/``load`` keep them in its npz).
Loading validates shapes — a changed architecture fails loudly instead of
silently mis-assigning.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .layers import Layer

__all__ = ["state_dict", "load_state_dict"]


def state_dict(model: Layer) -> Dict[str, np.ndarray]:
    """Ordered parameter values keyed ``p<i>`` (layer traversal order)."""
    return {f"p{i}": p.value.copy() for i, p in enumerate(model.parameters())}


def load_state_dict(model: Layer, state: Dict[str, np.ndarray]) -> None:
    """Assign saved values into an existing architecture (shape-checked)."""
    params = model.parameters()
    expected = {f"p{i}" for i in range(len(params))}
    if set(state.keys()) != expected:
        raise ValueError(
            f"state dict has {len(state)} entries; model has {len(params)} "
            "parameters (architecture mismatch)"
        )
    for i, p in enumerate(params):
        value = np.asarray(state[f"p{i}"])
        if value.shape != p.value.shape:
            raise ValueError(
                f"parameter p{i} shape mismatch: saved {value.shape}, "
                f"model {p.value.shape}"
            )
        p.value[...] = value

