"""LICOM-like ocean component: tripolar C-grid solvers, Canuto-like
mixing, non-ocean-point compression, and the CPL7 component contract."""

from .barotropic import BarotropicSolver, BarotropicState
from .baroclinic import BaroclinicSolver, linear_eos
from .compress import (
    Compressor,
    block_owner_map,
    compressed_equals_full,
    load_stats,
    wet_partition,
    wet_topology_matrix,
)
from .metrics import CGridMetrics, divergence_c, grad_x, grad_y
from .mixing import (
    ColumnDiffusion,
    MixingParams,
    canuto_kappa,
    implicit_vertical_diffusion,
    richardson_number,
)
from .model import LicomConfig, LicomModel
from .parallel_run import distributed_barotropic_run, local_window
from .tracer import TracerSolver

__all__ = [
    "CGridMetrics",
    "divergence_c",
    "grad_x",
    "grad_y",
    "BarotropicSolver",
    "BarotropicState",
    "BaroclinicSolver",
    "linear_eos",
    "TracerSolver",
    "MixingParams",
    "richardson_number",
    "canuto_kappa",
    "implicit_vertical_diffusion",
    "ColumnDiffusion",
    "Compressor",
    "compressed_equals_full",
    "wet_partition",
    "load_stats",
    "block_owner_map",
    "wet_topology_matrix",
    "LicomConfig",
    "LicomModel",
    "distributed_barotropic_run",
    "local_window",
]
