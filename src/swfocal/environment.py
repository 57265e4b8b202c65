"""Shallow-water waveguide model and closed-form eigenray solver.

Coordinates and conventions used throughout the package:

* depth ``z`` is in meters, positive downward, with the sea surface at 0;
* range is a horizontal distance in meters, and rays advance toward
  increasing range;
* ray angles are measured from the horizontal in degrees and are positive
  when the ray moves toward larger depth as it advances.

The receiver sits at range 0.  An eigenray connects a source at positive
range to the receiver; its arrival angle is positive when the ray reaches
the receiver traveling downward, i.e. arriving from above.  With the four
modeled propagation paths this yields the canonical ordering
``surface bounce >= direct >= bottom bounce >= surface-bottom bounce``
wherever all four exist.

The modeled paths are boundary-guided: their legs keep a fixed vertical
direction between boundary contacts.  Rays that pass an internal turning
point do reach long ranges in a downward-refracting profile, but their
arrival angles are multivalued and extremely sensitive to geometry, so
they are excluded from the path taxonomy; in the association model any
such arrival simply counts as an unmodeled path, i.e. a false alarm.
Where no boundary-guided ray of a kind connects source and receiver, that
path is geometrically impossible.

The sound speed profile is piecewise linear in depth, so every path range
has a closed form (Jensen, Kuperman, Porter & Schmidt, *Computational
Ocean Acoustics*, ch. 3).  A ray keeps its Snell constant
``xi = cos(theta) / c``; with ``s = sqrt(1 - xi**2 c**2)`` its horizontal
run across a slice ``[z_a, z_b]`` of one layer is

    xi * (z_b - z_a) * (c_a + c_b) / (s_a + s_b),

which is the arc formula ``(s_a - s_b) / (xi g)`` for a gradient ``g`` and
``dz cot(theta)`` for an iso layer, with neither a branch nor a
cancellation.  Summing runs over slices, with source depth ``zs``,
receiver depth ``zr`` and bottom depth ``b``, the path ranges are

    DP   run(min(zs, zr), max(zs, zr))
    SB   run(0, zs) + run(0, zr)
    BB   run(zs, b) + run(zr, b)
    SBB  run(0, zs) + run(0, b) + run(zr, b)

Each range strictly increases with ``xi`` up to ``xi_max``, one over the
largest speed at the depths the path crosses, where the ray grazes that
depth.  So a kind has at most one eigenray, and it exists iff the source
range is no more than the path range at ``xi_max``.

The solver brackets each eigenray between two rays of a fixed fan, then
refines it by Illinois false position.  The range function is evaluated
node-major, as a (nodes, rays) array, so each numpy step runs over the
many rays rather than the dozen or so nodes of a path.  The Illinois loop
carries only the unconverged brackets, as compact arrays that are
compressed when some of them converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SoundSpeedProfile",
    "Waveguide",
    "PathKind",
    "EigenRay",
    "eigenray_angles",
    "find_eigenrays",
]

# Grazing angles at the fastest depth of a path that bracket each eigenray
# before the Illinois steps refine it.
_FAN = np.linspace(0.0, 0.5 * np.pi, 257)
_MAX_STEPS = 60


class PathKind(Enum):
    """The four dominant propagation paths, in canonical order.

    The enum value is the canonical path index: the surface bounce is 1,
    the direct path 2, the bottom bounce 3 and the surface-bottom bounce 4.
    Wherever all four paths exist their arrival angles are non-increasing
    in this index.
    """

    SB = 1
    DP = 2
    BB = 3
    SBB = 4

    @property
    def index(self) -> int:
        return self.value


@dataclass(frozen=True)
class SoundSpeedProfile:
    """Piecewise-linear sound speed over depth.

    ``knots`` is an ordered sequence of (depth_m, speed_mps) pairs with
    strictly increasing depths starting at the surface (depth 0).
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(z), float(c)) for z, c in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValueError("sound speed profile needs at least two knots")
        depths = [z for z, _ in knots]
        if depths[0] != 0.0:
            raise ValueError("first profile knot must be at the surface (depth 0)")
        # each check is written so that nan fails it
        if not all(a < b < np.inf for a, b in zip(depths, depths[1:])):
            raise ValueError("profile knot depths must be finite and strictly increasing")
        if not all(0.0 < c < np.inf for _, c in knots):
            raise ValueError("sound speeds must be positive and finite")

    @property
    def max_depth(self) -> float:
        return self.knots[-1][0]


@dataclass(frozen=True)
class Waveguide:
    """Flat-bottom waveguide: profile, bottom depth and receiver depth."""

    ssp: SoundSpeedProfile
    bottom_depth: float
    receiver_depth: float

    def __post_init__(self):
        # each check is written so that nan fails it
        if not 0.0 < self.bottom_depth < np.inf:
            raise ValueError("bottom depth must be positive and finite")
        if not 0.0 < self.receiver_depth < self.bottom_depth:
            raise ValueError("receiver depth must lie strictly inside the water column")
        if self.ssp.max_depth < self.bottom_depth:
            raise ValueError("sound speed profile must cover the full water column")


@dataclass(frozen=True)
class EigenRay:
    kind: PathKind
    arrival_angle_deg: float


# arrival sign per path; the direct path takes the sign of zr - zs
_SIGNS = {PathKind.SB: 1.0, PathKind.BB: -1.0, PathKind.SBB: -1.0}


def _legs(kind: PathKind, z: np.ndarray, zs: float, zr: float) -> np.ndarray:
    """Number of legs of a ``kind`` path that cross each depth in ``z``."""
    above_s = (z < zs).astype(float)
    above_r = (z < zr).astype(float)
    if kind is PathKind.SB:
        return above_s + above_r
    if kind is PathKind.DP:
        return np.abs(above_s - above_r)
    if kind is PathKind.BB:
        return 2.0 - above_s - above_r
    return above_s + 2.0 - above_r


def _slant(phi, c_max: float, c) -> np.ndarray:
    """``c_max * s`` at speed ``c`` for the ray with ``xi = cos(phi) / c_max``.

    Written as a sum of non-negative terms, so it keeps full relative
    precision where the ray is nearly horizontal.
    """
    return np.sqrt((c_max - c) * (c_max + c) + (c * np.sin(phi)) ** 2)


def _scratch(n_nodes: int, n_rays: int) -> np.ndarray:
    """Room for ``_path_range`` on up to ``n_nodes`` nodes and ``n_rays`` rays."""
    return np.empty((2 * n_nodes - 1) * n_rays)


def _path_range(phi, c, num, base, scratch=None) -> np.ndarray:
    """Range of the path at each grazing angle in the 1-D array ``phi``.

    ``c`` holds the node speeds of the slices the path crosses, ``num`` each
    slice's ``weighted_dz * (c_a + c_b)`` and ``base`` the ``phi``-independent
    part of ``_slant`` at each node.  Evaluated node-major, as (nodes, rays),
    so every step runs over the rays, in views of ``scratch`` (from
    ``_scratch``; ``None`` takes a fresh one).
    """
    n, m = c.size, phi.size
    if scratch is None:
        scratch = _scratch(n, m)
    s = scratch[: n * m].reshape(n, m)
    runs = scratch[n * m : (2 * n - 1) * m].reshape(n - 1, m)
    np.multiply.outer(c, np.sin(phi), out=s)
    s *= s
    s += base[:, None]
    np.sqrt(s, out=s)  # _slant at each node, shared by the two slices that meet there
    np.add(s[:-1], s[1:], out=runs)
    with np.errstate(divide="ignore"):
        np.divide(num[:, None], runs, out=runs)
    return np.cos(phi) * runs.sum(axis=0)


def _grazing_angle(c, weighted_dz, r, scratch):
    """Angle ``phi`` at the fastest depth of the eigenray reaching each range.

    The path crosses one contiguous run of slices, with node speeds ``c``
    (one more than slices), each slice ``weighted_dz`` meters thick times
    its number of legs.  The ray is ``xi = cos(phi) / c_max``; ``phi`` is
    ``nan`` where ``r`` is beyond the flattest ray's range.  Returns
    ``(phi, c_max)``.  ``scratch`` serves ``_path_range`` for the path's
    nodes and ``max(r.size, _FAN.size)`` rays.
    """
    c_max = float(c.max())
    num = weighted_dz * (c[:-1] + c[1:])
    base = (c_max - c) * (c_max + c)  # the phi-independent part of _slant

    # Bracket each range between two fan rays, then refine by Illinois
    # false position on r / R(phi) - 1, which increases with phi and stays
    # finite where an iso layer at c_max makes R(0) unbounded.  Only the
    # unconverged brackets are carried, compacted when some converge.
    fan_r = _path_range(_FAN, c, num, base, scratch)
    n_reach = np.searchsorted(-fan_r, -r, side="right")
    ok = n_reach > 0
    j = np.minimum(n_reach[ok], _FAN.size - 1)
    rr = r[ok]
    x = _FAN[j - 1]
    f_lo = rr / fan_r[j - 1] - 1.0
    act = np.flatnonzero(f_lo < 0.0)
    a, fa, ra = x[act], f_lo[act], rr[act]
    b = _FAN[j[act]]
    fb = ra / fan_r[j[act]] - 1.0
    side = np.zeros(act.size)
    for _ in range(_MAX_STEPS):
        if not act.size:
            break
        xm = (a * fb - b * fa) / (fb - fa)
        fm = ra / _path_range(xm, c, num, base, scratch) - 1.0
        x[act] = xm
        keep = (np.abs(fm) > 1e-13) & (xm > a) & (xm < b)
        up = fm < 0.0
        # Illinois: halve the value at an end kept twice in a row
        a, b = np.where(up, xm, a), np.where(up, b, xm)
        fa = np.where(up, fm, np.where(side > 0, 0.5 * fa, fa))
        fb = np.where(up, np.where(side < 0, 0.5 * fb, fb), fm)
        side = np.where(up, -1.0, 1.0)
        if not keep.all():
            act, a, b, fa, fb, ra, side = (v[keep] for v in (act, a, b, fa, fb, ra, side))
    phi = np.full(r.shape, np.nan)
    phi[ok] = x
    return phi, c_max


def _solve_scratch(wg: Waveguide, n_ranges: int) -> np.ndarray:
    """Scratch for ``_solve`` in ``wg`` at any source depth and up to ``n_ranges`` ranges."""
    # the nodes: the knots above the bottom, the source, the receiver and the bottom
    n_nodes = sum(z < wg.bottom_depth for z, _ in wg.ssp.knots) + 3
    return _scratch(n_nodes, max(n_ranges, _FAN.size))


def _solve(wg: Waveguide, source_depth: float, ranges, kinds: tuple[PathKind, ...], scratch=None):
    """Arrival angles of each kind's eigenray from sources at one depth.

    Checks the source, then returns the ``(len(kinds), len(ranges))``
    arrival angles in degrees, ``nan`` where a kind has no eigenray.  The
    range functions run in ``scratch``, from ``_solve_scratch``; ``None``
    takes a fresh one for this call.
    """
    zs, zr, b = float(source_depth), wg.receiver_depth, wg.bottom_depth
    r = np.atleast_1d(np.asarray(ranges, dtype=float))
    if not np.all(r > 0.0):
        raise ValueError("source range must be positive")
    if not 0.0 <= zs <= b:
        raise ValueError("source depth outside the water column")
    if scratch is None:
        scratch = _solve_scratch(wg, r.size)
    kz, kc = (np.array(v) for v in zip(*wg.ssp.knots))
    z = np.unique(np.concatenate([kz[kz < b], [zs, zr, b]]))
    c = np.interp(z, kz, kc)
    ca, cb, dz = c[:-1], c[1:], np.diff(z)
    c_r = np.interp(zr, kz, kc)
    arrival = np.empty((len(kinds), r.size))
    for i, kind in enumerate(kinds):
        legs = _legs(kind, 0.5 * (z[:-1] + z[1:]), zs, zr)
        on = legs > 0
        if on.any():
            first, last = np.flatnonzero(on)[[0, -1]]
            phi, c_max = _grazing_angle(c[first : last + 2], legs[on] * dz[on], r, scratch)
        else:  # the direct path with zs == zr crosses no slice: the horizontal ray
            touching = (z[:-1] == zs) | (z[1:] == zs)
            phi = np.full(r.shape, 0.0 if np.all(ca[touching] == cb[touching]) else np.nan)
            c_max = c_r
        angle = np.degrees(np.arctan2(_slant(phi, c_max, c_r), np.cos(phi) * c_r))
        arrival[i] = _SIGNS.get(kind, np.sign(zr - zs)) * angle
    return arrival


def eigenray_angles(
    wg: Waveguide,
    source_depth: float,
    ranges,
    kinds: tuple[PathKind, ...] = tuple(PathKind),
) -> np.ndarray:
    """Arrival angles of the eigenrays from sources at one depth.

    ``ranges`` holds positive source ranges.  Returns the arrival angles in
    degrees, of shape ``(len(kinds), len(ranges))``, with ``nan`` where a
    kind has no eigenray.  The direct path from a source at the receiver
    depth is the horizontal ray, which stays at that depth only where the
    profile is iso around it.
    """
    return _solve(wg, source_depth, ranges, kinds)


def find_eigenrays(
    wg: Waveguide,
    source: tuple[float, float],
    kinds: tuple[PathKind, ...] = tuple(PathKind),
) -> dict[PathKind, EigenRay | None]:
    """Solve for the eigenrays from ``source`` to the receiver.

    A kind with no boundary-guided eigenray is geometrically impossible
    there and maps to ``None``.
    """
    r_s, z_s = float(source[0]), float(source[1])
    arrival = eigenray_angles(wg, z_s, [r_s], kinds)[:, 0]
    return {kind: None if np.isnan(a) else EigenRay(kind, float(a)) for kind, a in zip(kinds, arrival)}
