"""The Component protocol, the shared ComponentContext and ComponentBase.

§4's portability story is that *every* component runs through one
Kokkos-style kernel layer; §5.3's precision story is one model-wide
group-scaled FP64/FP32 policy.  Both require a uniform component
contract — the prerequisite the 40M-core coupled-modeling work and the
1 km full-Earth study both identify for scaling a coupled system.  This
module defines that contract:

* :class:`Component` — the protocol all four models (`GristModel`,
  `LicomModel`, `CiceModel`, `LandModel`) implement: lifecycle
  (``init`` / ``finalize``), coupling (``pre_coupling`` / ``step`` /
  ``post_coupling``), prognostic state access (``state`` /
  ``set_state``), restart I/O, and context binding;
* :class:`ComponentBase` — that protocol's plumbing, written once: a
  model declares ``name``, ``STATE`` and ``RESTART_EXTRA`` and inherits
  ``state`` / ``set_state`` / ``save_restart`` / ``load_restart`` /
  ``set_context`` / ``pre_coupling`` / ``post_coupling`` / ``run`` and
  the liveness check, so every ``state()`` key is restartable by
  construction;
* :class:`ComponentContext` — ONE shared execution space, the
  process-wide kernel table (the §5.3 hash table), ONE precision policy,
  ONE observability handle and ONE launch path (:meth:`~ComponentContext.
  launch`), bound into every component by the coupled driver so backend
  selection and mixed precision are model-wide decisions rather than
  per-component accidents;
* :func:`default_mixed_policy` — the §5.2.3 assignment: group-scaled
  FP32 for large-offset prognostics (ocean tracers, atmosphere
  thermodynamics), plain FP32 for velocities/fluxes/surface slabs, FP64
  for accumulators.

State keys are namespaced ``<component>.<variable>`` when the policy is
applied, so one policy spans the whole coupled system.

This module sits *below* the component packages (``repro.atm`` / ``ocn``
/ ``ice`` / ``lnd`` import it; it imports none of them and nothing from
``repro.esm``, which re-exports its public names).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from .io import restart as _restart
from .obs import NULL_OBS
from .pp import KERNELS, ExecutionSpace, KernelMetrics, KernelRegistry, Serial
from .precision import Precision, PrecisionPolicy

__all__ = [
    "Component",
    "ComponentBase",
    "ComponentContext",
    "default_mixed_policy",
    "precision_policy",
]


@runtime_checkable
class Component(Protocol):
    """The uniform contract every AP3ESM component implements.

    The coupled driver only ever talks to this surface: bind the shared
    context, feed imports, step, collect exports, and round-trip the
    prognostic state (restart I/O and the precision policy both go
    through ``state``/``set_state``).
    """

    name: str

    def init(self) -> None: ...

    def finalize(self) -> Dict[str, float]: ...

    def set_context(self, ctx: "ComponentContext") -> None: ...

    def pre_coupling(self, imports: Dict[str, np.ndarray]) -> None: ...

    def step(self, dt: Optional[float] = None) -> None: ...

    def post_coupling(self) -> Dict[str, np.ndarray]: ...

    def state(self) -> Dict[str, np.ndarray]: ...

    def set_state(self, state: Dict[str, np.ndarray]) -> None: ...

    def save_restart(self, directory) -> None: ...

    def load_restart(self, directory) -> None: ...


@dataclass
class ComponentContext:
    """One shared execution substrate for all components — and the one
    dispatch handle their kernel wrappers and physics suites receive.

    Parameters
    ----------
    space:
        The execution space every component's kernels dispatch on
        (:func:`repro.pp.make_backend` builds it from the config name,
        ``serial`` or ``procs``).
    precision:
        The model-wide §5.2.3 precision policy over namespaced
        ``<component>.<variable>`` keys; empty assignments = pure FP64.
    obs:
        Observability handle (``repro.obs.Obs`` or the null handle).
    metrics:
        Per-kernel launch/iteration accumulators feeding the obs
        metrics registry (``pp.<kernel>.launches`` etc.).

    ``kernels`` is the process-wide :data:`repro.pp.KERNELS` table the
    component kernels joined at import (the §5.3 registration pass).
    """

    space: ExecutionSpace = field(default_factory=Serial)
    precision: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    obs: Any = NULL_OBS
    metrics: KernelMetrics = field(default_factory=KernelMetrics)
    kernels: ClassVar[KernelRegistry] = KERNELS

    def __post_init__(self) -> None:
        if self.metrics.obs is None:
            self.metrics.obs = self.obs

    def launch(self, handle: int, policy, *args) -> None:
        """The one launch path (§5.3): resolve the hash to its registered
        kernel, run it over ``policy`` (a flat count or an
        :class:`~repro.pp.MDRangePolicy`) on this context's space, and
        count the launch in this context's metrics pool."""
        self.kernels.launch(
            self.space, handle, policy, *args,
            stats=self.metrics.stats(self.kernels.stats_name(handle)),
        )

    # -- the mixed-precision state path (§5.2.3) ---------------------------

    def namespaced_state(self, component: Component) -> Dict[str, np.ndarray]:
        """The component's prognostic state under global keys."""
        return {
            f"{component.name}.{k}": v for k, v in component.state().items()
        }

    def apply_precision(self, component: Component) -> None:
        """Round-trip the component's prognostic state through its
        storage precision (quantize + dequantize via GroupScale).

        A no-op when no assignment touches this component — pure-FP64
        components pay nothing — and when the component already holds its
        state in reduced precision (the fp32 ocean): fp32 arithmetic keeps
        every element within 2^-24 |x|, never looser than group scaling,
        so a round trip would only re-round.
        """
        prefix = f"{component.name}."
        if not any(k.startswith(prefix) for k in self.precision.assignments):
            return
        if all(v.dtype == np.float32 for v in component.state().values()):
            return
        rounded = self.precision.apply(self.namespaced_state(component))
        component.set_state({k[len(prefix):]: v for k, v in rounded.items()})

    def memory_report(self, components) -> Dict[str, float]:
        """Model-wide resident-state memory ledger under the policy."""
        state: Dict[str, np.ndarray] = {}
        for comp in components:
            state.update(self.namespaced_state(comp))
        report = self.precision.memory_report(state)
        n_groupscaled = sum(
            1 for k in state
            if self.precision.precision_of(k) is Precision.FP32_GROUPSCALED
        )
        n_fp32 = sum(
            1 for k in state
            if self.precision.precision_of(k) is Precision.FP32
        )
        report["n_variables"] = float(len(state))
        report["n_fp32"] = float(n_fp32)
        report["n_fp32_groupscaled"] = float(n_groupscaled)
        return report


class ComponentBase:
    """The :class:`Component` plumbing, written once.

    A model declares its schema and writes only ``init`` / ``finalize`` /
    ``step`` / ``import_state`` / ``export_state`` and its physics:

    ``name``
        The component's namespace (``atm`` / ``ocn`` / ``ice`` / ``lnd``).
    ``STATE``
        Prognostic key -> attribute path of the live array, resolved at
        call time (``"h": "swe.h"``, ``"eta": "bt.eta"``).  It is what
        ``state()`` returns, ``set_state()`` accepts, restarts save and
        the precision policy round-trips.
    ``RESTART_EXTRA``
        Plain attributes a restart carries beyond ``STATE`` (boundary
        forcing held between couplings).

    ``init()`` must set ``time``, ``n_steps`` and ``_initialized``.
    """

    name: str
    STATE: Dict[str, str] = {}
    RESTART_EXTRA: Tuple[str, ...] = ()

    _initialized = False
    _finalized = False

    def __init__(self) -> None:
        self.set_context(ComponentContext())  # standalone: private, serial

    def set_context(self, ctx: "ComponentContext") -> None:
        """Bind a (shared) context: phases trace on its obs handle
        (``obs`` stays reassignable — the coupled driver moves the ocean
        onto the domain-2 lane) and kernels launch through ``ctx``."""
        self.obs = ctx.obs
        self.ctx = ctx

    def pre_coupling(self, imports: Dict[str, np.ndarray]) -> None:
        self.import_state(imports)

    def post_coupling(self) -> Dict[str, np.ndarray]:
        return self.export_state()

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    # -- prognostic state --------------------------------------------------

    def _slot(self, path: str) -> Tuple[Any, str]:
        """(owner object, attribute name) of a dotted attribute path."""
        *parents, leaf = path.split(".")
        owner = self
        for attr in parents:
            owner = getattr(owner, attr)
        return owner, leaf

    def state(self) -> Dict[str, np.ndarray]:
        """The prognostic state as live arrays (what restarts save and
        the precision policy round-trips)."""
        self._check_alive()
        return {k: getattr(*self._slot(p)) for k, p in self.STATE.items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Rebind the given prognostic arrays; a partial dict leaves the
        rest untouched and unknown keys are ignored.  A floating array
        takes the live slot's floating dtype (an fp64 restart loaded into
        an fp32-held model stays fp32, and the reverse)."""
        self._check_alive()
        for key, value in state.items():
            if key in self.STATE:
                self._rebind(*self._slot(self.STATE[key]), value)

    @staticmethod
    def _rebind(owner: Any, leaf: str, value: np.ndarray) -> None:
        """``owner.leaf = value``, cast to the live array's floating dtype."""
        held = getattr(owner, leaf, None)
        if isinstance(held, np.ndarray) and held.dtype.kind == value.dtype.kind == "f":
            value = value.astype(held.dtype, copy=False)
        setattr(owner, leaf, value)

    # -- restart I/O (subfile format, §5.2.5) ------------------------------

    def save_restart(self, directory) -> None:
        """Write ``state()`` + ``RESTART_EXTRA`` and the clock scalars as
        a subfile restart set."""
        fields = self.state()
        fields.update((k, getattr(self, k)) for k in self.RESTART_EXTRA)
        _restart.save_restart(
            directory,
            fields=fields,
            scalars={"time": self.time, "n_steps": float(self.n_steps)},
        )

    def load_restart(self, directory) -> None:
        """Restore the component bit-exactly from a restart set."""
        self._check_alive()
        fields, scalars = _restart.load_restart(directory)
        self.set_state({k: fields[k] for k in self.STATE})
        for key in self.RESTART_EXTRA:
            self._rebind(self, key, fields[key])
        self.time = scalars["time"]
        self.n_steps = int(scalars["n_steps"])

    def _check_alive(self) -> None:
        if not self._initialized:
            raise RuntimeError("model not initialized (call init())")
        if self._finalized:
            raise RuntimeError("model already finalized")


def default_mixed_policy(group_size: int = 64) -> PrecisionPolicy:
    """The §5.2.3 model-wide assignment.

    Group-scaled FP32 for large-offset prognostics whose dynamic range
    within a group is small (ocean tracers, atmosphere thermodynamic
    columns, fluid thickness); plain FP32 for velocities, surface slabs
    and ice state; FP64 (unlisted) for accumulators like the land
    runoff total.
    """
    gs = Precision.FP32_GROUPSCALED
    f32 = Precision.FP32
    return PrecisionPolicy(
        assignments={
            # ocean: tracers carry large offsets -> group scaling.
            "ocn.t": gs, "ocn.s": gs,
            "ocn.u": f32, "ocn.v": f32,
            "ocn.eta": f32, "ocn.bt_u": f32, "ocn.bt_v": f32,
            # atmosphere: thermodynamic columns group-scale; winds cast.
            "atm.t_col": gs, "atm.q_col": gs, "atm.h": gs,
            "atm.u": f32, "atm.tracer": f32, "atm.tskin": f32,
            # sea ice: thin slab state tolerates a plain cast.
            "ice.thickness": f32, "ice.concentration": f32, "ice.tsurf": f32,
            # land: bucket state casts; runoff_total is an accumulator
            # and stays FP64 by omission.
            "lnd.tskin": f32, "lnd.bucket": f32, "lnd.snow": f32,
        },
        group_size=group_size,
    )


def precision_policy(name: str, group_size: int = 64) -> PrecisionPolicy:
    """Named policies the config/CLI select: ``fp64`` or ``mixed``."""
    if name == "fp64":
        return PrecisionPolicy()
    if name == "mixed":
        return default_mixed_policy(group_size)
    raise ValueError(f"unknown precision policy {name!r} (use 'fp64' or 'mixed')")
