"""Per-variable precision policies.

§5.2.3: "we focus on reducing variable precision within the dynamical core
of GRIST and LICOM" — some variables tolerate FP32 (tendencies, fluxes),
some need group scaling (large-offset fields like pressure), and some must
stay FP64 (accumulators, areas).  A :class:`PrecisionPolicy` captures that
assignment, applies it to a state dict (a quantize/dequantize round trip:
the storage effect of reduced precision on a component that computes in
FP64), and reports the memory saving.  The AI suite and the ocean read the
policy instead and compute in FP32 (``AIPhysicsSuite.bind``,
``LicomModel.set_context``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from .groupscale import GroupScaled32

__all__ = ["Precision", "PrecisionPolicy"]


class Precision(enum.Enum):
    FP64 = "fp64"
    FP32 = "fp32"
    FP32_GROUPSCALED = "fp32-groupscaled"


@dataclass
class PrecisionPolicy:
    """Variable name -> precision class; unlisted variables default FP64."""

    assignments: Dict[str, Precision] = field(default_factory=dict)
    group_size: int = 64

    def precision_of(self, name: str) -> Precision:
        return self.assignments.get(name, Precision.FP64)

    def assign(self, name: str, precision: Precision) -> None:
        self.assignments[name] = precision

    def apply(self, state: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Round-trip each variable through its storage precision.

        This is the storage-precision effect of reduced precision on an
        FP64-computing component: FP64 variables pass through untouched;
        FP32 variables lose to a plain cast; group-scaled variables lose
        only relative-to-group-max bits.
        """
        out: Dict[str, np.ndarray] = {}
        for name, arr in state.items():
            p = self.precision_of(name)
            arr = np.asarray(arr, dtype=np.float64)
            if p is Precision.FP64:
                out[name] = arr.copy()
            elif p is Precision.FP32:
                out[name] = arr.astype(np.float32).astype(np.float64)
            else:
                out[name] = GroupScaled32.encode(arr, self.group_size).decode()
        return out

    def memory_report(self, state: Mapping[str, np.ndarray]) -> Dict[str, float]:
        """Bytes before/after applying the policy to the resident state."""
        before = 0
        after = 0
        for name, arr in state.items():
            arr = np.asarray(arr)
            n = arr.size
            before += n * 8
            p = self.precision_of(name)
            if p is Precision.FP64:
                after += n * 8
            elif p is Precision.FP32:
                after += n * 4
            else:
                n_groups = (n + self.group_size - 1) // self.group_size
                after += n * 4 + n_groups * 8
        return {
            "bytes_fp64": float(before),
            "bytes_mixed": float(after),
            "saving_fraction": 1.0 - after / max(before, 1),
        }
