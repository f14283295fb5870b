"""C-grid metrics and masked finite-volume operators on the tripolar grid.

LICOM solves on an orthogonal curvilinear (tripolar) grid with Arakawa
C-staggering: cell-center scalars (eta, T, S), zonal velocity on east
faces, meridional velocity on north faces.  This module extracts the face
lengths / center spacings / areas from the :class:`~repro.grids.tripolar.
TripolarGrid` corner arrays and provides the masked divergence/gradient
operators the barotropic, baroclinic and tracer solvers and the sea ice share.

The operators are in-place slice ops, each value the same IEEE operations in
the same order as the shift-and-``np.where`` composition they replaced
(``tests/test_ocn_stencil_pin.py``): an x-shift by one is a flat offset by one
(:func:`xop`), a y-shift is a row slice, a mask is ``np.copyto(x, 0.0,
where=closed)`` over inverted masks frozen on first use, and every phase takes
its arrays in one dtype (an in-place op rounds in its buffer's dtype).

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
from .mixing import _one_dtype

__all__ = ["CGridMetrics", "CoriolisRotation", "divergence_c", "face_divergence", "grad_x", "grad_y",
           "level_slabs", "neighbour_sum", "transport", "upwind_faces", "xop"]

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
    def closed(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dry cells, closed east faces, closed north faces): the inverted masks."""
        return ~self.mask_c, ~self.mask_u, ~self.mask_v

    @cached_property
    def lap_scale(self) -> np.ndarray:
        """Squared mean spacing dividing every 5-point Laplacian."""
        return (0.5 * (self.dxu + self.dyv)) ** 2

    def laplacian(self, f: np.ndarray, closed: np.ndarray, weight) -> np.ndarray:
        """``(neighbour_sum(fm) - weight * fm) / lap_scale`` (a new array) of
        ``fm``: ``f`` zeroed where ``closed``."""
        fm = f.copy()
        np.copyto(fm, 0.0, where=closed)
        lap = neighbour_sum(fm, np.empty_like(fm))
        fm *= weight
        lap -= fm
        lap /= self.lap_scale
        return lap

    def face_masks(self, mask3d: np.ndarray, dz: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(east, north) open-face masks of a level stack: (nlev, nlat, nlon)
        wet mask ``mask3d``, (nlev,) thicknesses ``dz`` (shared: :meth:`stack_masks`)."""
        if mask3d.shape[1:] != self.shape:
            raise ValueError("mask3d must match the horizontal grid")
        if dz.shape[0] != mask3d.shape[0]:
            raise ValueError("dz must have one entry per level")
        return self.stack_masks(mask3d)[:2]

    def stack_masks(self, mask3d: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(open east faces, open north faces, dry cells, closed faces stacked
        (2, nlev, nlat, nlon)) of the level stack ``mask3d``, memoised on the
        last stack (by identity): the solvers of one ocean share one copy."""
        if getattr(self, "_stack_of", None) is not mask3d:
            mask_u3 = mask3d & np.roll(mask3d, -1, axis=-1) & self.mask_u
            mask_v3 = np.zeros_like(mask3d)
            mask_v3[:, :-1] = mask3d[:, :-1] & mask3d[:, 1:]
            mask_v3 &= self.mask_v
            self._stack_of = mask3d
            self._stack = mask_u3, mask_v3, ~mask3d, ~np.stack((mask_u3, mask_v3))
        return self._stack


# -- the in-place stencils (an ``out`` is C-contiguous and overlaps no input) --


def xop(ufunc: np.ufunc, out: np.ndarray, *args: Tuple[np.ndarray, int]) -> np.ndarray:
    """``out[..., i] = ufunc(a[..., i+da], ...)`` over the ``(a, da)`` pairs
    ``args``, shifts in {-1, 0, 1}, periodic in x (``np.positive``: a copy):
    one pass over the flattened arrays, then the wrapped columns."""
    n, shifts = out.shape[-1], [d for _, d in args]
    lo, hi = max(0, *(-d for d in shifts)), max(0, *shifts)
    flat = out.reshape(-1, copy=False)
    end = flat.size - hi
    ufunc(*(a.reshape(-1)[lo + d:end + d] for a, d in args), out=flat[lo:end])
    for i in [0] * lo + [n - 1] * hi:
        ufunc(*(a[..., (i + d) % n] for a, d in args), out=out[..., i])
    return out


def neighbour_sum(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """east + west + north + south of (..., nlat, nlon) ``f`` into ``out``, left
    to right; a row beyond the closed y edges takes the edge row's value."""
    xop(np.add, out, (f, 1), (f, -1))
    out[..., :-1, :] += f[..., 1:, :]
    out[..., -1, :] += f[..., -1, :]
    out[..., 1:, :] += f[..., :-1, :]
    out[..., 0, :] += f[..., 0, :]
    return out


def face_divergence(flux_u: np.ndarray, flux_v: np.ndarray) -> np.ndarray:
    """Net outflow ``(flux_u - west) + (flux_v - south)`` of every cell from its
    east- and north-face transports, none through the closed south edge;
    ``flux_u`` is overwritten."""
    div = xop(np.subtract, np.empty_like(flux_u), (flux_u, 0), (flux_u, -1))
    np.subtract(flux_v[..., 1:, :], flux_v[..., :-1, :], out=flux_u[..., 1:, :])
    flux_u[..., 0, :] = flux_v[..., 0, :]  # minus the zero edge flux: exact
    div += flux_u
    return div


def upwind_faces(c: np.ndarray, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(east, north) face values of cell values ``c`` under face velocities
    ``u``, ``v``: the cell itself where the velocity is positive, else its east
    / north neighbour (the seam row's own value on its closed faces)."""
    east, north = xop(np.positive, np.empty(c.shape, c.dtype), (c, 1)), np.empty(c.shape, c.dtype)
    north[..., :-1, :] = c[..., 1:, :]
    north[..., -1, :] = c[..., -1, :]
    np.copyto(east, c, where=u > 0)
    np.copyto(north, c, where=v > 0)
    return east, north


def transport(c: np.ndarray, faces: Tuple, vel: Tuple, scales: Tuple, dt: float, vol: np.ndarray,
              closed: Tuple = (None, None)) -> np.ndarray:
    """``c - dt * div(F) / vol`` (a new array) for the (east, north) transports
    ``F = vel * face value``, zeroed on the ``closed`` faces (None: none) and
    times each of ``scales`` in turn, built in the ``faces`` buffers."""
    _one_dtype("transport", c, *vel, vol)
    for face, w, factors, shut in zip(faces, vel, scales, closed):
        np.multiply(w, face, out=face)
        if shut is not None:
            np.copyto(face, 0.0, where=shut)
        for x in factors:
            face *= x
    div = face_divergence(*faces)
    div *= float(dt)
    div /= vol
    return np.subtract(c, div, out=div)


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
            fdt_u, fdt_v = 0.5 * (f_c + np.roll(f_c, -1, axis=-1)) * dt, f_v * dt
            self._dt, self._tables = dt, (fdt_u, fdt_v, 1.0 + fdt_u**2, 1.0 + fdt_v**2)
        return self._tables

    def __call__(self, u_star: np.ndarray, v_star: np.ndarray, dt: float, out=None):
        """The rotated (u, v), written into the pair ``out`` if given."""
        _one_dtype("CoriolisRotation", u_star, v_star, self.metrics.f_c)
        fdt_u, fdt_v, den_u, den_v = self.tables(dt)
        u, v = out if out is not None else (np.empty_like(u_star), np.empty_like(v_star))
        # Each face takes the mean of the four faces of the other kind around
        # it, summed left to right.  At u: v, v south, v east, v south-east,
        # zero south of the first row (+ 0.0 turns a -0.0 into +0.0 there).
        np.add(v_star[..., 1:, :], v_star[..., :-1, :], out=u[..., 1:, :])
        np.add(v_star[..., 0, :], 0.0, out=u[..., 0, :])
        shifted = xop(np.positive, np.empty(v_star.shape, v_star.dtype), (v_star, 1))
        u += shifted
        u[..., 1:, :] += shifted[..., :-1, :]  # first row: + 0.0 is exact
        # At v: u, u west, u north, u north-west, the seam row's own north.
        shifted = xop(np.positive, shifted, (u_star, -1))
        np.add(u_star, shifted, out=v)
        for f in (u_star, shifted):
            v[..., :-1, :] += f[..., 1:, :]
            v[..., -1, :] += f[..., -1, :]
        for w, star, fdt, den, op in ((u, u_star, fdt_u, den_u, np.add),
                                      (v, v_star, fdt_v, den_v, np.subtract)):
            w *= 0.25
            np.multiply(fdt, w, out=w)
            op(star, w, out=w)
            w /= den
        return u, v


def divergence_c(m: CGridMetrics, flux_u: np.ndarray, flux_v: np.ndarray) -> np.ndarray:
    """Divergence at centers of face-normal *transports* (m^3/s per face).

    ``flux_u[j, i]`` is the transport through the east face of (j, i)
    (positive eastward), ``flux_v`` through the north face (positive
    northward); closed faces must carry zero flux (enforced here, on copies).
    """
    dry, closed_u, closed_v = m.closed
    _one_dtype("divergence_c", flux_u, flux_v, m.area)
    fu, fv = flux_u.copy(), flux_v.copy()
    np.copyto(fu, 0.0, where=closed_u)
    np.copyto(fv, 0.0, where=closed_v)
    div = face_divergence(fu, fv)
    div /= m.area
    np.copyto(div, 0.0, where=dry)
    return div


def grad_x(m: CGridMetrics, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x-gradient at east faces: (phi[j,i+1] - phi[j,i]) / dxu (periodic)."""
    _one_dtype("grad_x", phi, m.dxu)
    g = xop(np.subtract, np.empty_like(phi) if out is None else out, (phi, 1), (phi, 0))
    g /= m.dxu
    np.copyto(g, 0.0, where=m.closed[1])
    return g


def grad_y(m: CGridMetrics, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y-gradient at north faces: (phi[j+1,i] - phi[j,i]) / dyv."""
    _one_dtype("grad_y", phi, m.dyv)
    g = np.empty_like(phi) if out is None else out
    np.subtract(phi[..., 1:, :], phi[..., :-1, :], out=g[..., :-1, :])
    g[..., :-1, :] /= m.dyv[:-1]
    g[..., -1, :] = 0.0
    np.copyto(g, 0.0, where=m.closed[2])
    return g
