"""Semi-implicit shallow-water stepping (the paper's 'Type of method used:
Semi-implicit').

Explicit stepping of the SWE is limited by the external gravity-wave CFL
(c = sqrt(gH) ~ 170 m/s at TC2 depths); km-scale models live or die by
treating those waves implicitly.  This module implements the classical
theta-method split:

* gravity terms (the -g grad(h) / -H div(u) pair, linearized about the
  mean depth H) are advanced with a trapezoidal (theta) average;
* everything else (Coriolis/PV, kinetic energy, nonlinear flux
  corrections) stays explicit;
* eliminating u^{n+1} yields a **Helmholtz problem** for h^{n+1},

      (I - (theta dt)^2 g H  div grad) h' = RHS,

  solved matrix-free with conjugate gradients using the same TRSK
  ``divergence``/``gradient`` operators (the operator is symmetric
  positive definite in the cell-area inner product because div and -grad
  are adjoints — the property ``tests/test_grids_trsk.py`` pins).

The payoff tested in ``tests/test_atm_semi_implicit.py``: stable at
several times the explicit CFL limit with mass conserved to round-off,
converging to the explicit solution as dt -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..grids import trsk
from ..grids.icos import IcosahedralGrid
from ..utils.units import GRAVITY
from .dycore import ShallowWaterDycore, SWEState

__all__ = ["SemiImplicitDycore", "helmholtz_solve"]


def helmholtz_solve(
    grid: IcosahedralGrid,
    coefficient: float,
    rhs: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 2000,
) -> Tuple[np.ndarray, int]:
    """Solve ``(I - coefficient * div grad) x = rhs`` by matrix-free CG.

    ``coefficient`` is ``(theta dt)^2 g H`` (m^2); the operator is SPD in
    the area-weighted inner product, so CG is the right Krylov method.
    Returns (solution, iterations).
    """
    if coefficient < 0:
        raise ValueError("coefficient must be >= 0")

    def apply_op(x: np.ndarray) -> np.ndarray:
        return x - coefficient * trsk.divergence(grid, trsk.gradient(grid, x))

    area = grid.area_cell

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(area * a * b))

    x = rhs.copy()
    r = rhs - apply_op(x)
    p = r.copy()
    rr = dot(r, r)
    rhs_norm = math.sqrt(max(dot(rhs, rhs), 1e-300))
    n_iter = 0
    while math.sqrt(rr) / rhs_norm > tol and n_iter < max_iter:
        ap = apply_op(p)
        alpha = rr / max(dot(p, ap), 1e-300)
        x += alpha * p
        r -= alpha * ap
        rr_new = dot(r, r)
        p = r + (rr_new / max(rr, 1e-300)) * p
        rr = rr_new
        n_iter += 1
    return x, n_iter


@dataclass
class SemiImplicitDycore:
    """Theta-method semi-implicit stepper sharing the explicit dycore's
    spatial operators (and therefore its conservation properties).

    Parameters
    ----------
    grid:
        The icosahedral mesh.
    theta:
        Implicitness (0.5 = trapezoidal, neutrally stable and 2nd order;
        >0.5 damps gravity waves — production models run ~0.55-0.6).
    mean_depth:
        Linearization depth H (defaults to the running mean of h).
    """

    grid: IcosahedralGrid
    theta: float = 0.55
    mean_depth: Optional[float] = None
    diffusion: float = 0.0
    cg_tol: float = 1e-12
    last_cg_iterations: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0.5, 1] for stability")
        self._explicit = ShallowWaterDycore(self.grid, diffusion=self.diffusion)

    def step(self, state: SWEState, dt: float) -> SWEState:
        """One semi-implicit step."""
        g = self.grid
        theta = self.theta
        h, u = state.h, state.u
        big_h = self.mean_depth if self.mean_depth is not None else float(h.mean())

        # Explicit (slow) tendencies: full RHS minus the linear gravity pair.
        full = self._explicit.tendencies(state)
        lin_dh = -big_h * trsk.divergence(g, u)
        lin_du = -GRAVITY * trsk.gradient(g, h)
        slow_dh = full.h - lin_dh
        slow_du = full.u - lin_du

        # Theta-method elimination:
        #   h' = h + dt slow_dh - dt H div((1-t) u + t u')
        #   u' = u + dt slow_du - dt g grad((1-t) h + t h')
        # Substitute u' into the h' equation -> Helmholtz for h'.
        u_star = u + dt * slow_du - dt * GRAVITY * (1.0 - theta) * trsk.gradient(g, h)
        rhs = (
            h
            + dt * slow_dh
            - dt * big_h * trsk.divergence(g, (1.0 - theta) * u + theta * u_star)
        )
        coeff = (theta * dt) ** 2 * GRAVITY * big_h
        h_new, self.last_cg_iterations = helmholtz_solve(
            g, coeff, rhs, tol=self.cg_tol
        )
        u_new = u_star - dt * GRAVITY * theta * trsk.gradient(g, h_new)
        return SWEState(h=h_new, u=u_new)

    # Delegate the invariants to the shared spatial discretization.
    def total_mass(self, state: SWEState) -> float:
        return self._explicit.total_mass(state)

    def total_energy(self, state: SWEState) -> float:
        return self._explicit.total_energy(state)
