"""Executor selection by name: what ``--backend`` and ``AP3ESMConfig.backend``
resolve through.

There are two executors because there are two ways this code actually
runs: in-process (``serial``) and fanned across host cores by the
shared-memory process pool (``procs``), bitwise-identical to each other.
Devices the paper ports to (MPE, CPE cluster, HIP GPU) are *priced*, not
executed: see :class:`repro.machine.ProcessorSpec`.

This lives in ``repro.pp`` because the choice is component-agnostic: the
same execution space is shared by every component through the
``ComponentContext`` (see :mod:`repro.component`).
"""

from __future__ import annotations

from typing import Optional

from .execspace import ExecutionSpace, Serial
from .procpool import ProcPool

__all__ = ["make_backend"]


def make_backend(name: str, workers: Optional[int] = None) -> ExecutionSpace:
    """Construct an execution space from a CLI/config backend name.

    ``serial`` is the single in-process lane; ``procs`` is the
    shared-memory process pool (:func:`repro.pp.procpool.ProcPool`) over
    ``workers`` cores (0 / None means every host core).
    """
    if name == "serial":
        return Serial()
    if name == "procs":
        return ProcPool(workers or None)
    raise ValueError(f"unknown backend {name!r}; expected 'serial' or 'procs'")
