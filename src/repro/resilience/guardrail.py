"""Per-column AI-physics guardrail with conventional fallback.

Hybrid physics-AI coupling needs guardrails around learned tendencies
(Zanna et al.): a CNN that emits NaN for one weird column, or a tendency
that would blow the state up, must not crash or poison the run.  The
:class:`GuardedPhysics` wrapper is a drop-in physics suite that

1. runs the primary suite (AI or conventional) on the full batch;
2. flags bad columns — any non-finite tendency/flux, or a tendency whose
   one-step increment exceeds the physical limits;
3. recomputes *only the flagged columns* with the conventional fallback
   suite and splices them in — unflagged columns keep the primary's
   output bit for bit;
4. counts every intervention (``resilience.physics_fallback_columns`` /
   ``..._events``) so silent degradation is impossible.

With no faults and a healthy suite the wrapper adds one detection pass
and zero state changes: output is bitwise identical to the bare suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..atm.columns import ColumnState
from ..atm.physics import ConventionalPhysics, PhysicsTendencies
from ..obs import NULL_OBS

__all__ = ["GuardrailLimits", "GuardedPhysics"]


@dataclass(frozen=True)
class GuardrailLimits:
    """Physical bounds on what one physics step may do to a column.

    Violating any of these marks the column as blown up.  Defaults are an
    order of magnitude beyond anything the conventional suite produces,
    so in-distribution columns are never touched.
    """

    max_dt_k: float = 30.0      # |ΔT| per step, K
    max_dq: float = 0.02        # |Δq| per step, kg/kg
    max_dwind: float = 50.0     # |Δu|, |Δv| per step, m/s
    max_flux: float = 5000.0    # |gsw|, |glw|, W/m^2


class GuardedPhysics:
    """Drop-in physics suite wrapping a primary with a guarded fallback.

    Parameters
    ----------
    primary:
        The suite being guarded (``AIPhysicsSuite`` or any object with
        ``compute(state, dt_s) -> PhysicsTendencies``).
    fallback:
        The conventional suite recomputing flagged columns (defaults to a
        fresh :class:`ConventionalPhysics`).
    limits:
        Blow-up thresholds; ``None`` uses :class:`GuardrailLimits`
        defaults.
    obs:
        Observability handle for the intervention counters.
    injector:
        Optional :class:`repro.resilience.faults.PhysicsFaultInjector`
        corrupting the primary's output before detection (chaos testing).
    step_fn:
        Returns the current model step for the injector's keying
        (installed by the driver; replay-stable across restarts).
    """

    def __init__(
        self,
        primary,
        fallback=None,
        limits: Optional[GuardrailLimits] = None,
        obs=None,
        injector=None,
        step_fn: Optional[Callable[[], int]] = None,
    ) -> None:
        self.primary = primary
        self.fallback = fallback if fallback is not None else ConventionalPhysics()
        self.limits = limits if limits is not None else GuardrailLimits()
        self.obs = obs if obs is not None else NULL_OBS
        self.injector = injector
        self.step_fn = step_fn
        self.fallback_columns_total = 0

    def bind(self, ctx) -> None:
        """Forward the dispatch handle both suites launch through."""
        for suite in (self.primary, self.fallback):
            if hasattr(suite, "bind"):
                suite.bind(ctx)

    # -- detection ---------------------------------------------------------

    def _bad_columns(self, tend: PhysicsTendencies, dt_s: float) -> np.ndarray:
        """Boolean (ncol,) mask of columns needing the fallback."""
        lim = self.limits
        finite = (
            np.isfinite(tend.du).all(axis=1)
            & np.isfinite(tend.dv).all(axis=1)
            & np.isfinite(tend.dt).all(axis=1)
            & np.isfinite(tend.dq).all(axis=1)
            & np.isfinite(tend.gsw)
            & np.isfinite(tend.glw)
        )
        blowup = (
            (np.abs(tend.dt) * dt_s > lim.max_dt_k).any(axis=1)
            | (np.abs(tend.dq) * dt_s > lim.max_dq).any(axis=1)
            | (np.abs(tend.du) * dt_s > lim.max_dwind).any(axis=1)
            | (np.abs(tend.dv) * dt_s > lim.max_dwind).any(axis=1)
            | (np.abs(tend.gsw) > lim.max_flux)
            | (np.abs(tend.glw) > lim.max_flux)
        )
        return ~finite | blowup

    # -- the physics-suite protocol ---------------------------------------

    def compute(self, state: ColumnState, dt_s: float) -> PhysicsTendencies:
        tend = self.primary.compute(state, dt_s)
        if self.injector is not None:
            step = self.step_fn() if self.step_fn is not None else 0
            self.injector.apply(tend, step)
        bad = self._bad_columns(tend, dt_s)
        if not bad.any():
            return tend
        idx = np.flatnonzero(bad)
        sub = ColumnState(
            u=state.u[idx], v=state.v[idx], t=state.t[idx], q=state.q[idx],
            p=state.p, tskin=state.tskin[idx], coszr=state.coszr[idx],
        )
        fb = self.fallback.compute(sub, dt_s)
        for name in ("du", "dv", "dt", "dq", "gsw", "glw", "precip",
                     "cloud_fraction", "shflx", "lhflx"):
            getattr(tend, name)[idx] = getattr(fb, name)
        self.fallback_columns_total += int(idx.size)
        self.obs.counter("resilience.physics_fallback_columns").inc(int(idx.size))
        self.obs.counter("resilience.physics_fallback_events").inc()
        return tend
