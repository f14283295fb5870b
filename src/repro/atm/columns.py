"""Vertical column state and reference profiles for the physics suites.

The physics (conventional and AI) operate on columns of (U, V, T, Q, P)
over ``nlev`` levels — the paper's AI tendency module input set.  This
module holds the column container, the pressure coordinate, reference
thermodynamic profiles, and saturation humidity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "pressure_levels",
    "reference_profiles",
    "saturation_specific_humidity",
    "ColumnState",
]

P_SURFACE = 101325.0   # Pa
P_TOP = 2000.0         # Pa


def pressure_levels(nlev: int = 30) -> np.ndarray:
    """Mid-level pressures (Pa), top to bottom, hybrid-like spacing that
    concentrates levels near the surface."""
    if nlev < 2:
        raise ValueError("need at least 2 levels")
    s = np.linspace(0.0, 1.0, nlev)
    sigma = s**1.6  # more levels near the ground
    return P_TOP + (P_SURFACE - P_TOP) * sigma


def reference_profiles(p: np.ndarray, t_surface: float = 288.0) -> Tuple[np.ndarray, np.ndarray]:
    """(T_ref, Q_ref) for a moist-adiabatic-ish standard atmosphere.

    T follows a 6.5 K/km lapse capped by an isothermal stratosphere;
    Q decays with pressure like observed moisture.
    """
    p = np.asarray(p, dtype=np.float64)
    # Hypsometric-ish height from pressure.
    z = 7500.0 * np.log(P_SURFACE / np.maximum(p, 1.0))
    t = np.maximum(t_surface - 6.5e-3 * z, 210.0)
    q = 0.015 * (p / P_SURFACE) ** 3
    return t, q


def saturation_specific_humidity(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Saturation specific humidity from Tetens' formula (kg/kg), in place
    in two full-size buffers: ``0.622 es / max(p - 0.378 es, 1)`` with
    ``es = min(610.78 exp(17.27 (t - 273.15) / max(t - 35.86, 1)), p / 2)``."""
    p = np.asarray(p, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    t = np.broadcast_to(t, np.broadcast_shapes(t.shape, p.shape))
    es = t - 273.15
    es *= 17.27
    den = t - 35.86
    es /= np.maximum(den, 1.0, out=den)
    np.exp(es, out=es)
    es *= 610.78
    np.minimum(es, 0.5 * p, out=es)  # keep the formula sane at extremes
    np.multiply(es, 0.378, out=den)
    np.subtract(p, den, out=den)
    es *= 0.622
    es /= np.maximum(den, 1.0, out=den)
    return es


@dataclass
class ColumnState:
    """Physics state for a batch of columns; arrays are (ncol, nlev)."""

    u: np.ndarray
    v: np.ndarray
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray          # (nlev,) shared pressure coordinate
    tskin: np.ndarray      # (ncol,) surface skin temperature
    coszr: np.ndarray      # (ncol,) cosine of solar zenith angle

    def __post_init__(self) -> None:
        ncol, nlev = self.t.shape
        for name in ("u", "v", "q"):
            if getattr(self, name).shape != (ncol, nlev):
                raise ValueError(f"{name} must be (ncol, nlev)")
        if self.p.shape != (nlev,):
            raise ValueError("p must be (nlev,)")
        if self.tskin.shape != (ncol,) or self.coszr.shape != (ncol,):
            raise ValueError("tskin/coszr must be (ncol,)")

    @property
    def ncol(self) -> int:
        return self.t.shape[0]

    @property
    def nlev(self) -> int:
        return self.t.shape[1]

    def copy(self) -> "ColumnState":
        return ColumnState(
            self.u.copy(), self.v.copy(), self.t.copy(), self.q.copy(),
            self.p.copy(), self.tskin.copy(), self.coszr.copy(),
        )

    def as_channels(self) -> np.ndarray:
        """(ncol, 5, nlev) array in the AI suite's input layout (U,V,T,Q,P)."""
        p_bcast = np.broadcast_to(self.p, self.t.shape)
        return np.stack([self.u, self.v, self.t, self.q, p_bcast], axis=1)

    @staticmethod
    def concat(states: "Sequence[ColumnState]") -> "ColumnState":
        """Stack several column batches into one along the column axis.

        The cross-member batched-physics gather: all batches must share
        the same pressure coordinate (same ``nlev`` grid) so one suite
        call can serve them; the per-batch slices of the result are
        bitwise-identical to the inputs.
        """
        if not states:
            raise ValueError("concat needs at least one ColumnState")
        p = states[0].p
        for s in states[1:]:
            if not np.array_equal(s.p, p):
                raise ValueError("all ColumnStates must share the pressure coordinate")
        return ColumnState(
            u=np.concatenate([s.u for s in states], axis=0),
            v=np.concatenate([s.v for s in states], axis=0),
            t=np.concatenate([s.t for s in states], axis=0),
            q=np.concatenate([s.q for s in states], axis=0),
            p=p,
            tskin=np.concatenate([s.tskin for s in states], axis=0),
            coszr=np.concatenate([s.coszr for s in states], axis=0),
        )
