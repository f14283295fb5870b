"""AP3ESM reproduction: a kilometer-scale AI-powered, performance-portable
Earth system model (SC '25) rebuilt from scratch in Python.

Subpackages
-----------
``repro.utils``
    Namelists, SYPD conversions, constants, deterministic RNG.
``repro.parallel``
    Simulated MPI runtime, decompositions, halo exchange, topology tools.
``repro.pp``
    Kokkos-style performance-portability layer; SWGOMP is its
    ``parallel_for`` on ``ExecutionSpace("cut", lanes=64)``.
``repro.machine``
    Analytic Sunway OceanLight / ORISE models and the calibrated
    performance model behind the scaling reproductions.
``repro.grids``
    Icosahedral Voronoi C-grid (TRSK), tripolar ocean grid, remapping.
``repro.ai``
    Numpy neural-network stack for the AI physics suite.
``repro.atm`` / ``repro.ocn`` / ``repro.ice`` / ``repro.lnd``
    The four model components behind the CPL7 contract.
``repro.coupler``
    CPL7/MCT machinery: GSMap, AttrVect, Router, rearrangers, clocks.
``repro.precision``
    Group-wise-scaling FP64/FP32 mixed precision + acceptance metrics.
``repro.io``
    Subfile parallel I/O.
``repro.resilience``
    Fault injection (seeded FaultPlan) + resilience machinery: rotating
    checksummed checkpoints, comm retry/timeouts, the task-domain
    watchdog, the AI-physics guardrail, and the chaos harness.
``repro.esm``
    The coupled AP3ESM driver, Table 1 configurations, the typhoon case.
``repro.bench``
    Published reference data and the table/figure regeneration harness.

See DESIGN.md for the system inventory and substitution ledger, and
EXPERIMENTS.md for paper-vs-measured results.
"""

from .utils.heap import keep_heap

__version__ = "1.0.0"
keep_heap()

__all__ = [
    "utils",
    "parallel",
    "pp",
    "machine",
    "grids",
    "ai",
    "atm",
    "ocn",
    "ice",
    "lnd",
    "coupler",
    "precision",
    "io",
    "resilience",
    "esm",
    "bench",
]
