"""C-grid metrics and masked finite-volume operators on the tripolar grid.

LICOM solves on an orthogonal curvilinear (tripolar) grid with Arakawa
C-staggering: cell-center scalars (eta, T, S), zonal velocity on east
faces, meridional velocity on north faces.  This module extracts the face
lengths / center spacings / areas from the :class:`~repro.grids.tripolar.
TripolarGrid` corner arrays and provides the masked divergence/gradient
operators the barotropic and tracer solvers share.

Boundary conventions: longitude is periodic; the southern edge is closed;
the tripolar **seam** (northern edge between the two displaced poles) is
treated as closed in this serial reference solver — both grid poles are
land on the synthetic earth, and the fold *topology* is exercised by the
parallel halo layer (see DESIGN.md, "Known simplifications").
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import List, Tuple

import numpy as np

from ..grids.sphere import arc_length
from ..grids.tripolar import TripolarGrid

__all__ = ["CGridMetrics", "CoriolisRotation", "divergence_c", "face_divergence", "grad_x", "grad_y",
           "level_slabs", "neighbour_sum", "shift_x", "shift_y", "south_zero"]

#: Elements per level slab of the horizontal-stencil phases: an elementwise
#: numpy op costs ~0.5 ns/element while its operands stay in L2 and ~1 ns on
#: a whole 144x96x12 box (cost-vs-size table in PERFORMANCE.md, PR 23).
SLAB_ELEMENTS = 48_000


def level_slabs(shape: Tuple[int, ...]) -> List[slice]:
    """Slices cutting a (nlev, nlat, nlon) box into runs of whole levels of
    at most :data:`SLAB_ELEMENTS` elements (at least one level) each."""
    per = max(1, SLAB_ELEMENTS // (shape[1] * shape[2]))
    return [slice(k, k + per) for k in range(0, shape[0], per)]


@dataclass
class CGridMetrics:
    """Face lengths, center spacings, areas, and staggered masks.

    Index conventions for cell (j, i):

    * ``u[j, i]`` lives on the **east** face, between centers (j,i), (j,i+1);
    * ``v[j, i]`` lives on the **north** face, between centers (j,i), (j+1,i);
    * east faces wrap periodically in i; the last row's north faces are
      closed (seam), as is the first row's south edge.
    """

    area: np.ndarray       # (nlat, nlon) cell areas, m^2
    dxu: np.ndarray        # (nlat, nlon) center spacing across east face, m
    dyv: np.ndarray        # (nlat, nlon) center spacing across north face, m
    ly_east: np.ndarray    # (nlat, nlon) east-face lengths, m
    lx_north: np.ndarray   # (nlat, nlon) north-face lengths, m
    mask_c: np.ndarray     # (nlat, nlon) True where cell is ocean
    mask_u: np.ndarray     # (nlat, nlon) True where the east face is open
    mask_v: np.ndarray     # (nlat, nlon) True where the north face is open
    f_c: np.ndarray        # (nlat, nlon) Coriolis parameter at centers

    @staticmethod
    def build(grid: TripolarGrid) -> "CGridMetrics":
        r = grid.radius
        corners = grid.corners  # (nlat+1, nlon+1, 3)
        centers = grid.centers

        # East face of (j, i): corners (j, i+1) -> (j+1, i+1).
        ly_east = r * arc_length(corners[:-1, 1:], corners[1:, 1:])
        # North face of (j, i): corners (j+1, i) -> (j+1, i+1).
        lx_north = r * arc_length(corners[1:, :-1], corners[1:, 1:])

        # Center spacings (periodic wrap in i for dxu).
        east_nbr = np.roll(centers, -1, axis=1)
        dxu = r * arc_length(centers, east_nbr)
        dyv = np.empty_like(dxu)
        dyv[:-1] = r * arc_length(centers[:-1], centers[1:])
        dyv[-1] = dyv[-2]  # seam row: nominal value (faces closed anyway)

        mask_c = grid.mask
        mask_u = mask_c & np.roll(mask_c, -1, axis=1)
        mask_v = np.zeros_like(mask_c)
        mask_v[:-1] = mask_c[:-1] & mask_c[1:]
        # Seam faces (last row) stay closed: mask_v[-1] already False.

        from ..utils.units import EARTH_OMEGA

        f_c = 2.0 * EARTH_OMEGA * np.sin(grid.lat)

        # Degenerate faces near the seam can have ~zero length; keep the
        # metric strictly positive where the face is open.
        dxu = np.maximum(dxu, 1.0)
        dyv = np.maximum(dyv, 1.0)
        area = np.maximum(grid.area, 1.0)
        return CGridMetrics(
            area=area,
            dxu=dxu,
            dyv=dyv,
            ly_east=np.maximum(ly_east, 0.0),
            lx_north=np.maximum(lx_north, 0.0),
            mask_c=mask_c,
            mask_u=mask_u,
            mask_v=mask_v,
            f_c=f_c,
        )

    @property
    def shape(self) -> Tuple[int, int]:
        return self.area.shape

    def astype(self, dtype) -> "CGridMetrics":
        """These metrics with every float field held in ``dtype`` (masks stay bool)."""
        return replace(self, **{f.name: getattr(self, f.name).astype(dtype, copy=False)
                                for f in fields(self) if getattr(self, f.name).dtype.kind == "f"})

    # -- frozen tables, built on first use (the idiom of ``grid.trsk_tables``) --

    @cached_property
    def lap_scale(self) -> np.ndarray:
        """Squared mean spacing dividing every 5-point Laplacian."""
        return (0.5 * (self.dxu + self.dyv)) ** 2

    def face_masks(self, mask3d: np.ndarray, dz: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(east, north) open-face masks of a level stack: (nlev, nlat, nlon)
        wet mask ``mask3d``, (nlev,) thicknesses ``dz``."""
        if mask3d.shape[1:] != self.shape:
            raise ValueError("mask3d must match the horizontal grid")
        if dz.shape[0] != mask3d.shape[0]:
            raise ValueError("dz must have one entry per level")
        mask_u3 = mask3d & shift_x(mask3d, 1) & self.mask_u
        mask_v3 = np.zeros_like(mask3d)
        mask_v3[:, :-1] = mask3d[:, :-1] & mask3d[:, 1:]
        return mask_u3, mask_v3 & self.mask_v


def shift_x(a: np.ndarray, k: int) -> np.ndarray:
    """Value at column i+k of (..., nlat, nlon), periodic: ``np.roll(a, -k,
    -1)`` as one concatenate (half the cost of ``roll`` on a level)."""
    return np.concatenate([a[..., k:], a[..., :k]], axis=-1)


def shift_y(a: np.ndarray, k: int) -> np.ndarray:
    """Value at row j+k (k != 0), clamped at the closed y boundaries."""
    if k > 0:
        return np.concatenate([a[..., k:, :]] + [a[..., -1:, :]] * k, axis=-2)
    return np.concatenate([a[..., :1, :]] * -k + [a[..., :k, :]], axis=-2)


def south_zero(a: np.ndarray) -> np.ndarray:
    """Value at row j-1, zero below the closed south edge (a face flux or
    velocity through the edge)."""
    return np.concatenate([np.zeros_like(a[..., :1, :]), a[..., :-1, :]], axis=-2)


def neighbour_sum(f: np.ndarray) -> np.ndarray:
    """east + west + north + south of (..., nlat, nlon)."""
    return shift_x(f, 1) + shift_x(f, -1) + shift_y(f, 1) + shift_y(f, -1)


def face_divergence(flux_u: np.ndarray, flux_v: np.ndarray) -> np.ndarray:
    """Net outflow of every cell from its east- and north-face transports."""
    return (flux_u - shift_x(flux_u, -1)) + (flux_v - south_zero(flux_v))


class CoriolisRotation:
    """Semi-implicit Coriolis rotation of (..., nlat, nlon) face velocities,

        (u, v) <- (u* + f dt v*, v* - f dt u*) / (1 + (f dt)^2),

    neutrally stable for pure inertial motion (explicit forward Coriolis is
    unconditionally unstable).  The factors are memoised on the last ``dt``:
    each solver owns one instance and steps at one ``dt``."""

    def __init__(self, metrics: CGridMetrics) -> None:
        self.metrics = metrics
        self._dt: float | None = None

    def tables(self, dt: float) -> Tuple[np.ndarray, ...]:
        """(f_u dt, f_v dt, 1 + (f_u dt)^2, 1 + (f_v dt)^2), f averaged to
        the east / north faces (zero on the closed seam row)."""
        if dt != self._dt:
            f_c = self.metrics.f_c
            f_v = np.zeros_like(f_c)
            f_v[:-1] = 0.5 * (f_c[:-1] + f_c[1:])
            fdt_u, fdt_v = 0.5 * (f_c + shift_x(f_c, 1)) * dt, f_v * dt
            self._dt, self._tables = dt, (fdt_u, fdt_v, 1.0 + fdt_u**2, 1.0 + fdt_v**2)
        return self._tables

    def __call__(self, u_star: np.ndarray, v_star: np.ndarray, dt: float):
        fdt_u, fdt_v, den_u, den_v = self.tables(dt)
        # Each face takes the mean of the four faces of the other kind around it.
        v_south, u_north = south_zero(v_star), shift_y(u_star, 1)
        v_at_u = 0.25 * (v_star + v_south + shift_x(v_star, 1) + shift_x(v_south, 1))
        u_at_v = 0.25 * (u_star + shift_x(u_star, -1) + u_north + shift_x(u_north, -1))
        return (u_star + fdt_u * v_at_u) / den_u, (v_star - fdt_v * u_at_v) / den_v


def divergence_c(m: CGridMetrics, flux_u: np.ndarray, flux_v: np.ndarray) -> np.ndarray:
    """Divergence at centers of face-normal *transports* (m^3/s per face).

    ``flux_u[j, i]`` is the transport through the east face of (j, i)
    (positive eastward), ``flux_v`` through the north face (positive
    northward); closed faces must carry zero flux (enforced here).
    """
    fu = np.where(m.mask_u, flux_u, 0.0)
    fv = np.where(m.mask_v, flux_v, 0.0)
    return np.where(m.mask_c, face_divergence(fu, fv) / m.area, 0.0)


def grad_x(m: CGridMetrics, phi: np.ndarray) -> np.ndarray:
    """x-gradient at east faces: (phi[j,i+1] - phi[j,i]) / dxu (periodic)."""
    g = (shift_x(phi, 1) - phi) / m.dxu
    return np.where(m.mask_u, g, 0.0)


def grad_y(m: CGridMetrics, phi: np.ndarray) -> np.ndarray:
    """y-gradient at north faces: (phi[j+1,i] - phi[j,i]) / dyv."""
    g = np.zeros_like(phi)
    g[..., :-1, :] = (phi[..., 1:, :] - phi[..., :-1, :]) / m.dyv[:-1]
    return np.where(m.mask_v, g, 0.0)
