"""Precomputed DOA lookup grid over the region of interest.

The tracker needs the modeled arrival angle of every propagation path at
many candidate source positions per time step.  Solving eigenrays on the
fly is far too slow, so the arrival angles are precomputed on a regular
range/depth grid and bilinearly interpolated at runtime.  Grid cells where
a path is geometrically impossible hold ``-inf``.

The grid is built one depth row at a time with the closed-form solver of
``swfocal.environment``: a row is one call of ``eigenray_angles`` for all
range columns at that source depth, the same solver ``find_eigenrays``
runs at a single point.  A cell is impossible exactly where its range lies
beyond the path's flattest boundary-guided ray.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swfocal.environment import PathKind, Waveguide, eigenray_angles

__all__ = ["IMPOSSIBLE", "DoaGrid", "build_doa_grid", "interpolate_doa", "interpolate_doa_many"]

IMPOSSIBLE = -np.inf


@dataclass(frozen=True)
class DoaGrid:
    """Modeled DOAs on a regular grid, one layer per propagation path.

    ``values`` has shape (n_r, n_d, K) in degrees with ``-inf`` marking
    geometrically impossible eigenrays.  Grid points are uniformly spaced
    and include both ends of the region of interest.
    """

    roi: tuple[float, float, float, float]
    n_r: int
    n_d: int
    kinds: tuple[PathKind, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.n_r, self.n_d, len(self.kinds)):
            raise ValueError("grid value array shape does not match header")

    @property
    def ranges(self) -> np.ndarray:
        return np.linspace(self.roi[0], self.roi[1], self.n_r)

    @property
    def depths(self) -> np.ndarray:
        return np.linspace(self.roi[2], self.roi[3], self.n_d)

    def coverage(self) -> dict[PathKind, float]:
        """Fraction of grid points where each path is impossible."""
        frac = np.mean(np.isneginf(self.values), axis=(0, 1))
        return {k: float(f) for k, f in zip(self.kinds, frac)}

    def select_kinds(self, kinds: tuple[PathKind, ...]) -> "DoaGrid":
        """Restrict the grid to a subset of its path layers."""
        idx = []
        for k in kinds:
            if k not in self.kinds:
                raise ValueError(f"grid has no layer for path {k.name}")
            idx.append(self.kinds.index(k))
        return DoaGrid(
            roi=self.roi,
            n_r=self.n_r,
            n_d=self.n_d,
            kinds=tuple(kinds),
            values=np.ascontiguousarray(self.values[:, :, idx]),
        )


def _validate_roi(wg: Waveguide, roi) -> tuple[float, float, float, float]:
    r0, r1, d0, d1 = (float(v) for v in roi)
    if not 0.0 < r0 < r1:
        raise ValueError("roi ranges must satisfy 0 < range_min < range_max")
    if not 0.0 <= d0 < d1 <= wg.bottom_depth:
        raise ValueError("roi depths must lie inside the water column")
    return (r0, r1, d0, d1)


def build_doa_grid(
    wg: Waveguide,
    roi,
    n_r: int,
    n_d: int,
    kinds: tuple[PathKind, ...] = tuple(PathKind),
) -> DoaGrid:
    """Build the DOA grid for ``kinds`` over ``roi``, one depth row at a time.

    Deterministic: the same inputs produce a bit-identical grid.
    """
    roi = _validate_roi(wg, roi)
    if n_r < 2 or n_d < 2:
        raise ValueError("grid needs at least 2 points per axis")
    kinds = tuple(kinds)
    if len(set(kinds)) != len(kinds) or not kinds:
        raise ValueError("kinds must be a non-empty set of distinct paths")

    ranges = np.linspace(roi[0], roi[1], n_r)
    values = np.empty((n_r, n_d, len(kinds)))
    for j, depth in enumerate(np.linspace(roi[2], roi[3], n_d)):
        arrival, _ = eigenray_angles(wg, depth, ranges, kinds)
        values[:, j, :] = np.where(np.isnan(arrival), IMPOSSIBLE, arrival).T
    return DoaGrid(roi=roi, n_r=n_r, n_d=n_d, kinds=kinds, values=values)


def _cell_weights(grid: DoaGrid, rng_m, dep_m):
    """Cell indices and bilinear weights for query points inside the roi."""
    ranges = grid.ranges
    depths = grid.depths
    ir = np.clip(np.searchsorted(ranges, rng_m, side="right") - 1, 0, grid.n_r - 2)
    jd = np.clip(np.searchsorted(depths, dep_m, side="right") - 1, 0, grid.n_d - 2)
    fx = (rng_m - ranges[ir]) / (ranges[ir + 1] - ranges[ir])
    fy = (dep_m - depths[jd]) / (depths[jd + 1] - depths[jd])
    return ir, jd, fx, fy


def interpolate_doa(grid: DoaGrid, p: tuple[float, float], k: int) -> float | None:
    """Bilinear DOA for path layer ``k`` at point ``p`` inside the roi.

    Returns ``None`` when any corner of the containing cell that carries
    bilinear weight is impossible: a partially impossible cell has no
    trustworthy interpolated value.  Corners with exactly zero weight are
    ignored, so a query exactly on a grid node returns the stored value.
    """
    r, d = float(p[0]), float(p[1])
    r0, r1, d0, d1 = grid.roi
    if not (r0 <= r <= r1 and d0 <= d <= d1):
        raise ValueError(f"point ({r}, {d}) outside the grid region of interest")
    if not 0 <= k < len(grid.kinds):
        raise ValueError(f"path layer index {k} out of range")
    ir, jd, fx, fy = _cell_weights(grid, r, d)
    w = np.array([(1 - fx) * (1 - fy), (1 - fx) * fy, fx * (1 - fy), fx * fy])
    v = np.array(
        [
            grid.values[ir, jd, k],
            grid.values[ir, jd + 1, k],
            grid.values[ir + 1, jd, k],
            grid.values[ir + 1, jd + 1, k],
        ]
    )
    active = w > 0.0
    if np.any(np.isneginf(v[active])):
        return None
    return float(np.sum(np.where(active, w * np.where(np.isneginf(v), 0.0, v), 0.0)))


def interpolate_doa_many(grid: DoaGrid, points: np.ndarray) -> np.ndarray:
    """Bilinear DOAs for all path layers at many points.

    ``points`` is (n, 2) of (range_m, depth_m); all points must lie inside
    the roi.  Returns an (n, K) array with ``nan`` where the path is
    impossible, applying the same zero-weight corner rule as
    ``interpolate_doa``.
    """
    pts = np.asarray(points, dtype=float)
    r = pts[:, 0]
    d = pts[:, 1]
    r0, r1, d0, d1 = grid.roi
    if np.any((r < r0) | (r > r1) | (d < d0) | (d > d1)):
        raise ValueError("points outside the grid region of interest")
    ir, jd, fx, fy = _cell_weights(grid, r, d)
    w = np.stack(
        [(1 - fx) * (1 - fy), (1 - fx) * fy, fx * (1 - fy), fx * fy], axis=1
    )  # (n, 4)
    v = np.stack(
        [
            grid.values[ir, jd, :],
            grid.values[ir, jd + 1, :],
            grid.values[ir + 1, jd, :],
            grid.values[ir + 1, jd + 1, :],
        ],
        axis=1,
    )  # (n, 4, K)
    active = w > 0.0
    bad = np.any(np.isneginf(v) & active[:, :, None], axis=1)  # (n, K)
    contrib = np.where(active[:, :, None], w[:, :, None] * np.where(np.isneginf(v), 0.0, v), 0.0)
    out = contrib.sum(axis=1)
    out[bad] = np.nan
    return out
