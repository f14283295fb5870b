"""CoupledExchange: route driver field handoffs through pruned AttrVects.

Before this layer the AP3ESM driver handed raw dicts between components,
so :meth:`FieldRegistry.pruned` was *computed* but never *applied* — the
unused fields still travelled.  CoupledExchange closes that gap: every
coupling-path handoff (a2x, x2o, o2x, i2x) is packed into an
:class:`AttrVect` in registration order, optionally pruned to the used
subset (§5.2.4: "remove the unnecessary communication variables that are
registered in MCT and are not used"), and unpacked back to a dict with
each field's original dtype and shape restored.

The round trip is exact: float64 fields pass through unchanged and the
bool ``freezing`` flag survives the float64 AttrVect representation
bit-for-bit (0.0/1.0 are exact), so a run with pruning *off* is bitwise
identical to the pre-exchange driver, and a run with pruning *on* is
bitwise identical on every surviving field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..obs import NULL_OBS, Obs
from .attrvect import AttrVect
from .fields import FieldRegistry

__all__ = ["CoupledExchange"]


@dataclass
class CoupledExchange:
    """Applies the field registry to every coupling-path handoff."""

    registry: FieldRegistry
    prune: bool = False
    obs: Obs = NULL_OBS
    #: Per-path running totals for :meth:`report`.
    _traffic: Dict[str, Dict[str, float]] = field(default_factory=dict, repr=False)

    def transfer(self, path: str, values: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Move one bundle across a coupling path.

        ``values`` must contain every *used* field registered on ``path``
        and nothing unregistered; a registered-but-unused field may be
        absent (e.g. an optional diagnostic the producer did not emit —
        it would not survive pruning anyway).  Returns the present fields
        that survive pruning (all present fields when ``prune`` is off),
        dtype- and shape-preserved.
        """
        if path not in self.registry.registered:
            raise KeyError(
                f"unknown coupling path {path!r}; "
                f"registered: {sorted(self.registry.registered)}"
            )
        registered = self.registry.registered[path]
        unknown = sorted(set(values) - set(registered))
        if unknown:
            raise KeyError(f"bundle on {path!r} has unregistered fields {unknown}")
        missing_used = [n for n in self.registry.pruned(path) if n not in values]
        if missing_used:
            raise KeyError(f"bundle on {path!r} is missing used fields {missing_used}")
        base = self.registry.pruned(path) if self.prune else registered
        keep = [n for n in base if n in values]

        shapes: Dict[str, tuple] = {}
        dtypes: Dict[str, np.dtype] = {}
        packed: Dict[str, np.ndarray] = {}
        for name in keep:
            arr = np.asarray(values[name])
            shapes[name] = arr.shape
            dtypes[name] = arr.dtype
            packed[name] = arr.astype(np.float64, copy=False).ravel()
        av = (
            AttrVect.from_dict(packed)
            if keep
            else AttrVect([], np.zeros((0, 0)))
        )

        n_present = sum(1 for n in registered if n in values)
        self._account(path, av, n_registered=n_present)

        return {
            name: av.get(name).reshape(shapes[name]).astype(dtypes[name], copy=False)
            for name in keep
        }

    def _account(self, path: str, av: AttrVect, n_registered: int) -> None:
        lsize = av.lsize
        pruned_fields = n_registered - av.n_fields
        bytes_saved = pruned_fields * lsize * 8
        t = self._traffic.setdefault(
            path,
            {"transfers": 0.0, "fields": 0.0, "fields_pruned": 0.0,
             "bytes": 0.0, "bytes_saved": 0.0},
        )
        t["transfers"] += 1
        t["fields"] += av.n_fields
        t["fields_pruned"] += pruned_fields
        t["bytes"] += av.nbytes
        t["bytes_saved"] += bytes_saved
        obs = self.obs
        if obs.enabled:
            obs.counter("coupler.exchange.transfers").inc()
            obs.counter("coupler.exchange.fields").inc(av.n_fields)
            obs.counter("coupler.exchange.bytes").inc(av.nbytes)
            if pruned_fields:
                obs.counter("coupler.exchange.fields_pruned").inc(pruned_fields)
                obs.counter("coupler.exchange.bytes_saved").inc(bytes_saved)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-path traffic totals since construction (what moved, what
        pruning removed)."""
        return {path: dict(t) for path, t in sorted(self._traffic.items())}
