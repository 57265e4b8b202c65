"""Precomputed DOA lookup grid over the region of interest.

The tracker needs the modeled arrival angle of every propagation path at
many candidate source positions per time step.  Solving eigenrays on the
fly is far too slow, so the arrival angles are precomputed on a regular
range/depth grid and bilinearly interpolated at runtime.  A grid is its
region of interest and its values, exactly what the solver returns: ``nan``
marks a path that is geometrically impossible, and its K layers are the
first K paths in canonical order.  The counts, the paths and the two node
tables, the ``linspace`` positions of its range and depth nodes, are read
off the roi and the values' shape; the node tables are read-only arrays
built with the grid, so a lookup makes no node array of its own.

The grid is built one depth row at a time with the closed-form solver of
``swfocal.environment``: a row is one ``eigenray_angles`` call for all
range columns at that source depth.  A cell is impossible exactly where
its range lies beyond the path's flattest boundary-guided ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from swfocal.environment import PathKind, Waveguide, eigenray_angles

__all__ = ["DoaGrid", "check_roi", "inside_roi", "build_doa_grid", "interpolate_doa_many"]


def check_roi(roi) -> None:
    """Refuse a region of interest ``(r0, r1, d0, d1)`` unless both its spans are positive and finite.

    A ``nan`` bound fails the rule of its span.  The refusal reads
    ``roi: <rule>, got [r0, r1, d0, d1]``.
    """
    roi = [float(v) for v in roi]
    r0, r1, d0, d1 = roi
    for axis, span in (("range", r1 - r0), ("depth", d1 - d0)):
        if not 0.0 < span < np.inf:
            raise ValueError(f"roi: the {axis} span must be positive and finite, got {roi}")


def inside_roi(roi, r, d):
    """Whether each point (``r``, ``d``) lies in ``roi``: edges count as inside, ``nan`` as outside."""
    r0, r1, d0, d1 = roi
    return (r >= r0) & (r <= r1) & (d >= d0) & (d <= d1)


@dataclass(frozen=True)
class DoaGrid:
    """Modeled DOAs on a regular grid, one layer per propagation path.

    ``values`` has shape (n_r, n_d, K) in degrees with ``nan`` marking
    geometrically impossible eigenrays; its K layers are ``kinds``, the
    first K paths of ``PathKind``.  Grid points are uniformly spaced and
    include both ends of the region of interest.

    ``n_r``, ``n_d`` and ``kinds`` are read off the values' shape.
    ``ranges`` and ``depths`` are the node tables, ``np.linspace`` over
    the roi: built once with the grid, read by every lookup, and therefore
    read-only arrays.
    """

    roi: tuple[float, float, float, float]
    values: np.ndarray
    n_r: int = field(init=False, compare=False)
    n_d: int = field(init=False, compare=False)
    kinds: tuple[PathKind, ...] = field(init=False, compare=False)
    ranges: np.ndarray = field(init=False, repr=False, compare=False)
    depths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_roi(self.roi)
        r0, r1, d0, d1 = self.roi
        shape = self.values.shape
        if len(shape) != 3 or min(shape[:2]) < 2 or not 1 <= shape[2] <= len(PathKind):
            rule = f"must have shape (n_r, n_d, K) with at least 2 points per axis and K in 1..{len(PathKind)}"
            raise ValueError(f"values: {rule}, got {shape}")
        n_r, n_d, n_k = shape
        object.__setattr__(self, "n_r", n_r)
        object.__setattr__(self, "n_d", n_d)
        object.__setattr__(self, "kinds", tuple(PathKind)[:n_k])
        object.__setattr__(self, "ranges", _nodes(r0, r1, n_r))
        object.__setattr__(self, "depths", _nodes(d0, d1, n_d))

    def coverage(self) -> dict[PathKind, float]:
        """Fraction of grid points where each path is impossible."""
        frac = np.mean(np.isnan(self.values), axis=(0, 1))
        return {k: float(f) for k, f in zip(self.kinds, frac)}

    def select_kinds(self, kinds: tuple[PathKind, ...]) -> "DoaGrid":
        """The grid of the first ``len(kinds)`` layers, which must be ``kinds``.

        Every layer shares the grid's values; fewer copies them once, in
        C order, as the lookup reads them.
        """
        if tuple(kinds) != self.kinds[: len(kinds)]:
            raise ValueError(
                f"select the first paths of {[k.name for k in self.kinds]} in order, got {[k.name for k in kinds]}"
            )
        return DoaGrid(self.roi, np.ascontiguousarray(self.values[:, :, : len(kinds)]))


def _nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` uniform nodes over [lo, hi], as a read-only array."""
    nodes = np.linspace(lo, hi, n)
    nodes.flags.writeable = False
    return nodes


def build_doa_grid(wg: Waveguide, roi, n_r: int, n_d: int) -> DoaGrid:
    """Build the DOA grid of all four paths over ``roi``, one depth row at a time.

    A caller that tracks fewer paths takes them with ``select_kinds``.
    ``DoaGrid`` checks the roi by ``check_roi`` and the counts; then the
    ranges must be positive and the depths lie in the water column, all
    before any row is solved.  Deterministic: the same inputs produce a
    bit-identical grid.
    """
    grid = DoaGrid(tuple(float(v) for v in roi), np.empty((n_r, n_d, len(PathKind))))
    r0, _, d0, d1 = grid.roi
    if not 0.0 < r0:
        raise ValueError(f"roi: ranges must be positive, got {list(grid.roi)}")
    if not (0.0 <= d0 and d1 <= wg.bottom_depth):
        raise ValueError(f"roi: depths must lie in the water column [0, {wg.bottom_depth}], got {list(grid.roi)}")
    for j, depth in enumerate(grid.depths):
        grid.values[:, j] = eigenray_angles(wg, depth, grid.ranges).T
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
    if not inside_roi(grid.roi, r, d).all():
        raise ValueError("points outside the grid region of interest")
    r0, r1, d0, d1 = grid.roi
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
    # the sum nan.  On a cell edge a corner of zero weight is ignored, also
    # where impossible (0 * nan is nan too), so it is zeroed first.
    # Random points are almost never on an edge: skip the four selections.
    edge = _edge_rows(fx, gx, fy, gy)
    if edge.size:
        for w, v in zip(weights, corners):
            v[:, edge[w[edge] == 0.0]] = 0.0
    out = np.multiply(weights[0], corners[0])
    for w, v in zip(weights[1:], corners[1:]):
        v *= w
        out += v
    return out.T
