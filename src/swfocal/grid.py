"""Precomputed DOA lookup grid over the region of interest.

The tracker needs the modeled arrival angle of every propagation path at
many candidate source positions per time step.  Solving eigenrays on the
fly is far too slow, so the arrival angles are precomputed on a regular
range/depth grid and bilinearly interpolated at runtime.  Grid cells where
a path is geometrically impossible hold ``-inf``.  Each grid keeps its two
node tables, the ``linspace`` positions of its range and depth nodes, as
read-only arrays built with it, so a lookup makes no node array of its own.

The grid is built one depth row at a time with the closed-form solver of
``swfocal.environment``: a row is one arrivals-only solve for all range
columns at that source depth.  It is the solve ``eigenray_angles`` and
``find_eigenrays`` run, so every row equals the arrival angles of
``eigenray_angles`` bit for bit.  A cell is impossible exactly where its
range lies beyond the path's flattest boundary-guided ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from swfocal.environment import PathKind, Waveguide, _solve, _solve_scratch

__all__ = ["IMPOSSIBLE", "DoaGrid", "build_doa_grid", "interpolate_doa_many"]

IMPOSSIBLE = -np.inf


@dataclass(frozen=True)
class DoaGrid:
    """Modeled DOAs on a regular grid, one layer per propagation path.

    ``values`` has shape (n_r, n_d, K) in degrees with ``-inf`` marking
    geometrically impossible eigenrays.  Grid points are uniformly spaced
    and include both ends of the region of interest.

    ``ranges`` and ``depths`` are the node tables, ``np.linspace`` over
    the roi: built once with the grid, read by every lookup, and therefore
    read-only arrays.
    """

    roi: tuple[float, float, float, float]
    n_r: int
    n_d: int
    kinds: tuple[PathKind, ...]
    values: np.ndarray
    ranges: np.ndarray = field(init=False, repr=False, compare=False)
    depths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r0, r1, d0, d1 = self.roi
        if not (r0 < r1 and d0 < d1):
            raise ValueError("grid roi must satisfy range_min < range_max and depth_min < depth_max")
        if not (r1 - r0 < np.inf and d1 - d0 < np.inf):
            raise ValueError("grid roi must be finite")
        if self.n_r < 2 or self.n_d < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not self.kinds or len(set(self.kinds)) != len(self.kinds):
            raise ValueError("kinds must be a non-empty set of distinct paths")
        if self.values.shape != (self.n_r, self.n_d, len(self.kinds)):
            raise ValueError("grid value array shape does not match header")
        object.__setattr__(self, "ranges", _nodes(r0, r1, self.n_r))
        object.__setattr__(self, "depths", _nodes(d0, d1, self.n_d))

    def coverage(self) -> dict[PathKind, float]:
        """Fraction of grid points where each path is impossible."""
        frac = np.mean(np.isneginf(self.values), axis=(0, 1))
        return {k: float(f) for k, f in zip(self.kinds, frac)}

    def select_kinds(self, kinds: tuple[PathKind, ...]) -> "DoaGrid":
        """Restrict the grid to a subset of its path layers.

        Every layer in the grid's own order shares the grid's C-ordered
        values; any other selection copies them.
        """
        idx = []
        for k in kinds:
            if k not in self.kinds:
                raise ValueError(f"grid has no layer for path {k.name}")
            idx.append(self.kinds.index(k))
        values = self.values if idx == list(range(len(self.kinds))) else self.values[:, :, idx]
        return DoaGrid(
            roi=self.roi,
            n_r=self.n_r,
            n_d=self.n_d,
            kinds=tuple(kinds),
            values=np.ascontiguousarray(values),
        )


def _nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` uniform nodes over [lo, hi], as a read-only array."""
    nodes = np.linspace(lo, hi, n)
    nodes.flags.writeable = False
    return nodes


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

    ``DoaGrid`` checks the header before any row is solved.  Every row's
    solve runs in one scratch, freed when the build returns.
    Deterministic: the same inputs produce a bit-identical grid.
    """
    kinds = tuple(kinds)
    values = np.empty((n_r, n_d, len(kinds)))
    grid = DoaGrid(roi=_validate_roi(wg, roi), n_r=n_r, n_d=n_d, kinds=kinds, values=values)
    scratch = _solve_scratch(wg, n_r)
    for j, depth in enumerate(grid.depths):
        arrival = _solve(wg, depth, grid.ranges, kinds, scratch)
        values[:, j] = np.where(np.isnan(arrival), IMPOSSIBLE, arrival).T
    return grid


def _axis_cells(lo: float, hi: float, nodes: np.ndarray, x: np.ndarray):
    """Cell index and fraction of each ``x`` in [lo, hi] on the uniform ``nodes``.

    ``nodes`` is the grid's node table over [lo, hi].  The index is the
    last node at or below ``x`` (the cell below the top node for
    ``x == hi``).  It is read off the uniform step, then moved by at most
    one to agree with the nodes, whose positions round differently; that
    is enough while the step is far above the rounding error of the
    coordinates.  As ``x >= lo == nodes[0]``, the index never falls
    below 0, so only the top is clipped.
    """
    n = nodes.size
    t = x - lo
    t /= (hi - lo) / (n - 1)
    i = t.astype(np.intp)  # x >= lo, so truncation is floor
    np.minimum(i, n - 2, out=i)
    i -= nodes.take(i) > x
    i += nodes.take(i + 1) <= x
    np.minimum(i, n - 2, out=i)
    below = nodes.take(i)
    frac = x - below
    frac /= nodes.take(i + 1) - below
    return i, frac


def _edge_rows(fx, gx, fy, gy) -> np.ndarray:
    """Rows where some corner's bilinear weight is exactly 0.

    The four weights are the rounded products of ``(gx or fx)`` and
    ``(gy or fy)``.  Rounding is monotone, so the smallest is
    ``min(fx, gx) * min(fy, gy)``, rounded alike: 0 where a fraction is
    0 or 1, and where the product underflows.
    """
    low = np.minimum(fx, gx)
    low *= np.minimum(fy, gy)
    return np.flatnonzero(low == 0.0)


def interpolate_doa_many(grid: DoaGrid, points: np.ndarray) -> np.ndarray:
    """Bilinear DOAs for all path layers at many points.

    ``points`` is (n, 2) of (range_m, depth_m); all points must lie inside
    the roi.  Returns an (n, K) array with ``nan`` where a corner of the
    containing cell that carries bilinear weight is impossible: a partially
    impossible cell has no trustworthy interpolated value.  Corners with
    exactly zero weight are ignored, so a query exactly on a grid node
    returns the stored value.

    The cells are read off the grid's node tables, ``ranges`` and
    ``depths``, which the grid builds once; the rows with a corner of zero
    weight are found from the cell fractions.  The (n, K) result is a
    view of path-major (K, n) memory: each path's angles are contiguous,
    and ``result.T`` is C-ordered.
    """
    pts = np.asarray(points, dtype=float)
    r = np.ascontiguousarray(pts[:, 0])
    d = np.ascontiguousarray(pts[:, 1])
    r0, r1, d0, d1 = grid.roi
    # a nan coordinate fails these comparisons too
    if not (
        r.min(initial=r0) >= r0
        and r.max(initial=r1) <= r1
        and d.min(initial=d0) >= d0
        and d.max(initial=d1) <= d1
    ):
        raise ValueError("points outside the grid region of interest")
    ir, fx = _axis_cells(r0, r1, grid.ranges, r)
    jd, fy = _axis_cells(d0, d1, grid.depths, d)
    cell = ir * grid.n_d
    cell += jd
    gx = 1 - fx
    gy = 1 - fy
    weights = [gx * gy, gx * fy, fx * gy, fx * fy]
    # the four corners in one gather, then path-major: (4, K, n)
    steps = np.array([0, 1, grid.n_d, grid.n_d + 1])
    flat = grid.values.reshape(-1, len(grid.kinds))
    corners = flat.take(cell + steps[:, None], axis=0).transpose(0, 2, 1).copy()
    # inside a cell every corner has weight, and an impossible one makes
    # the sum -inf.  On a cell edge a corner of zero weight is ignored, also
    # where impossible (0 * -inf would be nan), so it is zeroed first.
    # Random points are almost never on an edge: skip the four selections.
    edge = _edge_rows(fx, gx, fy, gy)
    if edge.size:
        for w, v in zip(weights, corners):
            v[:, edge[w[edge] == 0.0]] = 0.0
    out = np.multiply(weights[0], corners[0])
    for w, v in zip(weights[1:], corners[1:]):
        v *= w
        out += v
    with np.errstate(invalid="ignore"):
        out += 0.0 * out  # -inf (an impossible corner) to nan
    return out.T
