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
        r0, r1, d0, d1 = self.roi
        if not (r0 < r1 and d0 < d1):
            raise ValueError("grid roi must satisfy range_min < range_max and depth_min < depth_max")
        if self.n_r < 2 or self.n_d < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not self.kinds or len(set(self.kinds)) != len(self.kinds):
            raise ValueError("kinds must be a non-empty set of distinct paths")
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
    if not 0.0 < r0:
        raise ValueError("roi ranges must be positive")
    if not (0.0 <= d0 and d1 <= wg.bottom_depth):
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

    ``DoaGrid`` checks the header before any row is solved.  Deterministic:
    the same inputs produce a bit-identical grid.
    """
    kinds = tuple(kinds)
    values = np.empty((n_r, n_d, len(kinds)))
    grid = DoaGrid(roi=_validate_roi(wg, roi), n_r=n_r, n_d=n_d, kinds=kinds, values=values)
    ranges = grid.ranges
    for j, depth in enumerate(grid.depths):
        arrival, _ = eigenray_angles(wg, depth, ranges, kinds)
        values[:, j, :] = np.where(np.isnan(arrival), IMPOSSIBLE, arrival).T
    return grid


def _axis_cells(lo: float, hi: float, n: int, x: np.ndarray):
    """Cell index and fraction of each ``x`` in [lo, hi] on ``n`` uniform nodes.

    The index is the last node at or below ``x`` (the cell below the top
    node for ``x == hi``), with the node positions of ``linspace``.  It is
    read off the uniform step, then moved by at most one to agree with the
    nodes, whose positions round differently; that is enough while the
    step is far above the rounding error of the coordinates.
    """
    nodes = np.linspace(lo, hi, n)
    # x >= lo, so truncation is floor
    i = np.clip(((x - lo) / ((hi - lo) / (n - 1))).astype(np.intp), 0, n - 2)
    i -= nodes[i] > x
    i += nodes[i + 1] <= x
    i = np.clip(i, 0, n - 2)
    return i, (x - nodes[i]) / (nodes[i + 1] - nodes[i])


def interpolate_doa(grid: DoaGrid, p: tuple[float, float], k: int) -> float | None:
    """Bilinear DOA for path layer ``k`` at point ``p`` inside the roi.

    ``interpolate_doa_many`` at one point; ``None`` where the path is
    impossible.
    """
    if not 0 <= k < len(grid.kinds):
        raise ValueError(f"path layer index {k} out of range")
    v = interpolate_doa_many(grid, np.array([[p[0], p[1]]], dtype=float))[0, k]
    return None if np.isnan(v) else float(v)


def interpolate_doa_many(grid: DoaGrid, points: np.ndarray) -> np.ndarray:
    """Bilinear DOAs for all path layers at many points.

    ``points`` is (n, 2) of (range_m, depth_m); all points must lie inside
    the roi.  Returns an (n, K) array with ``nan`` where a corner of the
    containing cell that carries bilinear weight is impossible: a partially
    impossible cell has no trustworthy interpolated value.  Corners with
    exactly zero weight are ignored, so a query exactly on a grid node
    returns the stored value.
    """
    pts = np.asarray(points, dtype=float)
    r = pts[:, 0]
    d = pts[:, 1]
    r0, r1, d0, d1 = grid.roi
    if not np.all((r >= r0) & (r <= r1) & (d >= d0) & (d <= d1)):
        raise ValueError("points outside the grid region of interest")
    ir, fx = _axis_cells(r0, r1, grid.n_r, r)
    jd, fy = _axis_cells(d0, d1, grid.n_d, d)
    flat = grid.values.reshape(-1, len(grid.kinds))
    cell = ir * grid.n_d + jd
    weights = [(1 - fx) * (1 - fy), (1 - fx) * fy, fx * (1 - fy), fx * fy]
    corners = [flat.take(cell + step, axis=0) for step in (0, 1, grid.n_d, grid.n_d + 1)]
    # inside a cell every corner has weight, and an impossible one makes
    # the sum -inf.  On a cell edge a corner of zero weight is ignored, also
    # where impossible (0 * -inf is nan), so those rows are summed again.
    with np.errstate(invalid="ignore"):
        out = weights[0][:, None] * corners[0]
        for w, v in zip(weights[1:], corners[1:]):
            out += w[:, None] * v
        out[~np.isfinite(out)] = np.nan
        edge = np.flatnonzero(np.min(weights, axis=0) == 0.0)
        if edge.size:
            terms, bad = [], False
            for w, v in zip(weights, corners):
                w, v = w[edge, None], v[edge]
                live, hole = w > 0.0, np.isneginf(v)
                terms.append(np.where(live & ~hole, w * v, 0.0))
                bad = bad | (live & hole)
            out[edge] = np.where(bad, np.nan, terms[0] + terms[1] + terms[2] + terms[3])
    return out
