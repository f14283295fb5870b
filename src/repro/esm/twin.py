"""The bitwise twin check: a twin holds when
``first_difference(snapshot(a), snapshot(b)) is None``, and a broken one
names the leaf that differs."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..utils import first_difference

__all__ = ["snapshot", "first_difference"]


def snapshot(session) -> Dict[str, np.ndarray]:
    """``{leaf: array copy}`` of an ``AP3ESM`` or ``EnsembleRun``: each
    component's ``STATE`` as ``<component>.<variable>`` (``model.components``
    order, then ``STATE`` order), then ``clock.time`` and ``n_couplings``;
    an ensemble prefixes each member's leaves with ``member<k>.``.  An
    in-flight ocean run is joined first, as ``save_restart`` does."""
    members = getattr(session, "members", None)
    if members is not None:
        return {f"member{k}.{leaf}": value for k, member in enumerate(members)
                for leaf, value in snapshot(member).items()}
    session._wait_ocean()
    state = {leaf: np.array(value) for comp in session.components
             for leaf, value in session.ctx.namespaced_state(comp).items()}
    state["clock.time"] = np.array(session.clock.time)
    state["n_couplings"] = np.array(float(session.n_couplings))
    return state

