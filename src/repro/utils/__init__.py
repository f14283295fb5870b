"""Shared utilities: namelists, units/constants, deterministic RNG, the
bitwise compare and the fixed-order pairwise combine tree."""

from .bitwise import first_difference, pairwise_tree
from .namelist import NamelistError, parse_namelist, read_namelist, write_namelist
from .rng import derive_seed, seeded
from .units import (
    DAYS_PER_YEAR,
    EARTH_OMEGA,
    EARTH_RADIUS,
    GRAVITY,
    SECONDS_PER_DAY,
    SECONDS_PER_YEAR,
    parallel_efficiency,
    resolution_to_cell_km,
    sdpd_from_sypd,
    sypd_from_sdpd,
    sypd_from_walltime,
    walltime_from_sypd,
)

__all__ = [
    "first_difference",
    "pairwise_tree",
    "parse_namelist",
    "read_namelist",
    "write_namelist",
    "NamelistError",
    "seeded",
    "derive_seed",
    "DAYS_PER_YEAR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_YEAR",
    "EARTH_RADIUS",
    "EARTH_OMEGA",
    "GRAVITY",
    "sypd_from_walltime",
    "walltime_from_sypd",
    "sdpd_from_sypd",
    "sypd_from_sdpd",
    "parallel_efficiency",
    "resolution_to_cell_km",
]
