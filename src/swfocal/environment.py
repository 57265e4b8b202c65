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

The solver brackets each eigenray between two rays of a fixed fan of 513
grazing angles, which grow quadratically, so its rays lie densest near
grazing, where a small angle covers the long ranges.  The first trial ray
is the degree-7 inverse interpolant of the angle in log range through the
eight fan rays around the bracket, or the secant point where the
interpolant is not finite or falls outside the bracket, as next to an
unbounded ``R(0)``.  The range function is evaluated node-major, as a
(nodes, rays) array, so each numpy step runs over the many rays rather
than the dozen or so nodes of a path.

A solve, one path kind at one source depth over all ranges, runs in this
order:

1. evaluate the fan (its sines and cosines are constants) and bracket
   every range between two of its rays: in place when every range has a
   bracket, as for SB and SBB on the coastal grids, else by gathering the
   bracketed ranges into compact arrays;
2. evaluate every bracket once, at its first trial ray.  The range
   function is smooth, so at grid ranges, 100 m and beyond, almost every
   bracket meets the stopping rule there.  When all of them do and every
   range has a bracket, the solve returns that evaluation's arrays as
   they are;
3. refine only the unconverged leftovers by Anderson–Björck false
   position (Anderson & Björck, BIT 13, 1973): compact arrays updated in
   place where they move and compressed when some of them converge.
   Leftovers are rare at grid ranges and common at 1–50 m, where the fan's
   log ranges lie far apart.

Each root comes with the sine and cosine of the evaluation that settled
it, and ``eigenray_angles`` takes the arrival angle from them rather than
recomputing them.  It forms ``-r`` and ``log r`` once per call, for all
four kinds.
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
# and start its refinement: from 0, as existence is r <= R(0), to pi/2,
# spaced quadratically so densest near grazing.
_FAN = 0.5 * np.pi * np.linspace(0.0, 1.0, 513) ** 2
_FAN_SIN, _FAN_COS = np.sin(_FAN), np.cos(_FAN)
_WINDOW = 8  # fan rays per inverse interpolant, which is of degree 7
_MAX_STEPS = 60
# the largest speed (m/s) and depth (m) of an environment: the solve squares
# speeds and multiplies depths by sums of speeds, all within the float range
_LARGEST = 1e100
# the shallowest receiver depth (m): at 1e-200 m and less a refracting
# profile's eigenray brackets stay open after _MAX_STEPS steps
_SHALLOWEST = 1e-100


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
            raise ValueError(f"ssp_knots: sound speed profile needs at least two knots, got {knots}")
        # each check is written so that nan fails it
        if knots[0][0] != 0.0:
            raise ValueError(f"ssp_knots[0][0]: the first knot must be at the surface (depth 0), got {knots[0][0]}")
        for i, ((above, _), (z, _)) in enumerate(zip(knots, knots[1:]), start=1):
            if not above < z <= _LARGEST:
                raise ValueError(
                    f"ssp_knots[{i}][0]: knot depths must be strictly increasing and at most {_LARGEST:g} m, "
                    f"got {z} after {above}"
                )
        for i, (_, c) in enumerate(knots):
            if not 0.0 < c <= _LARGEST:
                raise ValueError(
                    f"ssp_knots[{i}][1]: sound speeds must be positive and at most {_LARGEST:g} m/s, got {c}"
                )

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
        if not 0.0 < self.bottom_depth <= _LARGEST:
            raise ValueError(f"bottom_depth_m: must be positive and at most {_LARGEST:g} m, got {self.bottom_depth}")
        if not 0.0 < self.receiver_depth < self.bottom_depth:
            raise ValueError(
                f"receiver_depth_m: must lie strictly inside the water column (0, {self.bottom_depth}), "
                f"got {self.receiver_depth}"
            )
        if self.receiver_depth < _SHALLOWEST:
            raise ValueError(f"receiver_depth_m: must be at least {_SHALLOWEST:g} m, got {self.receiver_depth}")
        if self.ssp.max_depth < self.bottom_depth:
            raise ValueError(
                f"ssp_knots: the profile must reach the bottom at {self.bottom_depth} m, "
                f"got its last knot at {self.ssp.max_depth} m"
            )


@dataclass(frozen=True)
class EigenRay:
    """The eigenray of a path, which ``find_eigenrays`` returns under its kind."""

    arrival_angle_deg: float


# arrival sign per path; the direct path takes the sign of zr - zs
_SIGNS = {PathKind.SB: 1.0, PathKind.BB: -1.0, PathKind.SBB: -1.0}


def _legs(kind: PathKind, above_s: np.ndarray, above_r: np.ndarray) -> np.ndarray:
    """Number of legs of a ``kind`` path that cross each slice.

    ``above_s`` and ``above_r`` are 1.0 where the slice lies above the
    source and above the receiver, 0.0 elsewhere.
    """
    if kind is PathKind.SB:
        return above_s + above_r
    if kind is PathKind.DP:
        return np.abs(above_s - above_r)
    if kind is PathKind.BB:
        return 2.0 - above_s - above_r
    return above_s + 2.0 - above_r


def _slant(sin_phi, c_max: float, c) -> np.ndarray:
    """``c_max * s`` at speed ``c`` for the ray with ``xi = cos(phi) / c_max``, from ``sin(phi)``.

    Written as a sum of non-negative terms, so it keeps full relative
    precision where the ray is nearly horizontal.
    """
    return np.sqrt((c_max - c) * (c_max + c) + (c * sin_phi) ** 2)


def _path_range(sin_phi, cos_phi, c, num, base) -> np.ndarray:
    """Range of the path at the grazing angles ``phi`` given by their sines and cosines.

    ``sin_phi`` and ``cos_phi`` are 1-D.  ``c`` holds the node speeds of the
    slices the path crosses, ``num`` each slice's ``weighted_dz * (c_a + c_b)``
    and ``base`` the ``phi``-independent part of ``_slant`` at each node.
    Evaluated node-major, as (nodes, rays), so every step runs over the rays,
    in views of one block: with two separate arrays a 2400x165 grid build
    faulted in some 40 times the pages.
    """
    n, m = c.size, sin_phi.size
    block = np.empty((2 * n - 1) * m)
    s = block[: n * m].reshape(n, m)
    runs = block[n * m :].reshape(n - 1, m)
    np.multiply.outer(c, sin_phi, out=s)
    s *= s
    s += base[:, None]
    np.sqrt(s, out=s)  # _slant at each node, shared by the two slices that meet there
    np.add(s[:-1], s[1:], out=runs)
    with np.errstate(divide="ignore"):
        np.divide(num[:, None], runs, out=runs)
    return cos_phi * runs.sum(axis=0)


def _fan_start(fan_r, j, log_r):
    """Inverse interpolant of ``phi`` in log range at each log range ``log_r``.

    It runs through the ``_WINDOW`` fan rays around the bracket
    ``(j - 1, j)``, or the first or last ``_WINDOW`` at the ends of the fan.
    The Newton divided differences of every window come from one table over
    the fan, and one Horner pass evaluates them.  Where a window holds the
    unbounded ``R(0)`` of an iso layer at ``c_max``, the value is ``nan`` or
    infinite; the caller keeps the secant point wherever the value is not
    strictly inside the bracket.
    """
    with np.errstate(all="ignore"):
        u = np.log(fan_r)
        dd = [_FAN]  # dd[k][i]: phi[u_i, ..., u_i+k]
        for k in range(1, _WINDOW):
            dd.append((dd[-1][1:] - dd[-1][:-1]) / (u[k:] - u[:-k]))
        half = _WINDOW // 2  # window starts, clipped to [0, _FAN.size - _WINDOW]
        w = np.maximum(np.minimum(j, _FAN.size - half) - half, 0)
        p = dd[-1].take(w)
        for k in range(_WINDOW - 2, -1, -1):
            p *= log_r - u[k:].take(w)
            p += dd[k].take(w)
    return p


def _trial(a, b, fa, fb, r, c, num, base, start=None):
    """One false-position evaluation in each bracket ``[a, b]``.

    The trial angle is ``start`` where given and strictly inside the
    bracket, else the secant point.  Where ``f = r / R - 1`` is steep at one
    end, as near pi/2, the secant point can round onto the other end: it
    bisects there, and a bracket that cannot split counts as settled.
    Returns the trial ``x``, its ``f``, whether it meets the stopping rule,
    and its ``sin`` and ``cos``.
    """
    # where even the vertical ray reaches far beyond r, as at a range tiny
    # beside the depths, fa == fb == -1: the secant point is +inf and bisects
    with np.errstate(divide="ignore"):
        x = (a * fb - b * fa) / (fb - fa)
    if start is not None:
        np.copyto(x, start, where=(start > a) & (start < b))
    out = (x <= a) | (x >= b)
    if out.any():
        np.copyto(x, 0.5 * (a + b), where=out)
        out = (x <= a) | (x >= b)
    sin_x, cos_x = np.sin(x), np.cos(x)
    f = r / _path_range(sin_x, cos_x, c, num, base) - 1.0
    return x, f, (np.abs(f) <= 1e-13) | out, sin_x, cos_x


def _grazing_angle(c, weighted_dz, r, neg_r, log_r):
    """Angle ``phi`` at the fastest depth of the eigenray reaching each range.

    The path crosses one contiguous run of slices, with node speeds ``c``
    (one more than slices), each slice ``weighted_dz`` meters thick times
    its number of legs.  ``neg_r`` and ``log_r`` are ``-r`` and ``log(r)``,
    which the four kinds of a source depth share.  The ray is
    ``xi = cos(phi) / c_max``; ``phi`` is ``nan`` where ``r`` is beyond the
    flattest ray's range.  Returns ``(phi, c_max, sin(phi), cos(phi))``,
    each root's sine and cosine as its range evaluation used them; raises
    ``RuntimeError`` where a bracket is still open after ``_MAX_STEPS``
    evaluations.
    """
    c_max = float(c.max())
    num = weighted_dz * (c[:-1] + c[1:])
    base = (c_max - c) * (c_max + c)  # the phi-independent part of _slant

    # Bracket each range between fan rays lo and hi = lo + 1 on
    # f = r / R(phi) - 1, which increases with phi and stays finite where an
    # iso layer at c_max makes R(0) unbounded.  The fan's ranges fall with
    # phi, so hi is 1 plus the number of inner fan rays, 1 to 511, that
    # reach r.  Then f_lo < 0 marks a bracket, f_lo == 0 a fan ray that
    # reaches r exactly and f_lo > 0 a range beyond R(0).  When every range
    # is bracketed they are solved in place, else the bracketed ones are
    # gathered.  Every bracket is evaluated once.
    fan_r = _path_range(_FAN_SIN, _FAN_COS, c, num, base)
    hi = np.searchsorted(-fan_r[1:-1], neg_r, side="right")
    hi += 1
    lo = hi - 1
    f_lo = r / fan_r[lo] - 1.0
    bracketed = f_lo < 0.0
    every = bracketed.all()
    # with every range bracketed, fa is a view of f_lo, which the refinement
    # below may overwrite once at_ray has read it
    act = slice(None) if every else np.flatnonzero(bracketed)
    lo_a, hi_a, ra = lo[act], hi[act], r[act]
    a, b, fa, fb = _FAN[lo_a], _FAN[hi_a], f_lo[act], ra / fan_r[hi_a] - 1.0
    x, f, done, sin_x, cos_x = _trial(a, b, fa, fb, ra, c, num, base, _fan_start(fan_r, hi_a, log_r[act]))
    if every and done.all():  # as in most solves at grid ranges
        return x, c_max, sin_x, cos_x

    # scatter into full rows, nan where no fan ray reaches r; a fan ray
    # that reaches r exactly is its root
    phi, sin_phi, cos_phi = (np.full(r.shape, np.nan) for _ in range(3))
    at_ray = np.flatnonzero(f_lo == 0.0)
    ray = lo[at_ray]
    phi[at_ray], sin_phi[at_ray], cos_phi[at_ray] = _FAN[ray], _FAN_SIN[ray], _FAN_COS[ray]
    rows = np.arange(r.size)[act]

    # Anderson–Björck false position refines the unconverged leftovers,
    # carried as compact arrays and compressed as they converge; each root
    # is written as its bracket leaves
    last_up = None  # where the previous step moved a
    steps = 1
    while True:
        if done.any():
            settled = rows[done]
            phi[settled], sin_phi[settled], cos_phi[settled] = x[done], sin_x[done], cos_x[done]
            live = ~done
            rows, a, b, fa, fb, ra, x, f = (v[live] for v in (rows, a, b, fa, fb, ra, x, f))
            if last_up is not None:
                last_up = last_up[live]
        if not rows.size:
            return phi, c_max, sin_phi, cos_phi
        if steps >= _MAX_STEPS:
            raise RuntimeError(f"{rows.size} of {r.size} eigenray brackets still open after {_MAX_STEPS} steps")
        up = f < 0.0
        # Anderson–Björck: scale the value at an end kept twice in a row by
        # 1 - f / (the moving end's value), or by 1/2 where that is not positive
        if last_up is not None:
            twice = np.flatnonzero(up == last_up)
            if twice.size:
                t_up = up[twice]
                keep_b, keep_a = twice[t_up], twice[~t_up]
                scale = 1.0 - f[twice] / np.where(t_up, fa[twice], fb[twice])
                scale[scale <= 0.0] = 0.5
                fb[keep_b] *= scale[t_up]
                fa[keep_a] *= scale[~t_up]
        np.copyto(a, x, where=up)
        np.copyto(fa, f, where=up)
        down = ~up
        np.copyto(b, x, where=down)
        np.copyto(fb, f, where=down)
        last_up = up
        x, f, done, sin_x, cos_x = _trial(a, b, fa, fb, ra, c, num, base)
        steps += 1


def eigenray_angles(wg: Waveguide, source_depth: float, ranges) -> np.ndarray:
    """Arrival angles of the eigenrays from sources at one depth.

    ``ranges`` holds positive source ranges.  Returns the arrival angles in
    degrees, of shape ``(4, len(ranges))``, one row per ``PathKind`` in
    canonical order, with ``nan`` where a kind has no eigenray.  The direct
    path from a source at the receiver depth is the horizontal ray, which
    stays at that depth only where the profile is iso around it.
    """
    zs, zr, b = float(source_depth), wg.receiver_depth, wg.bottom_depth
    r = np.atleast_1d(np.asarray(ranges, dtype=float))
    if not np.all(r > 0.0):
        raise ValueError("source range must be positive")
    if not 0.0 <= zs <= b:
        raise ValueError("source depth outside the water column")
    kz, kc = (np.array(v) for v in zip(*wg.ssp.knots))
    z = np.unique(np.concatenate([kz[kz < b], [zs, zr, b]]))
    c = np.interp(z, kz, kc)
    ca, cb, dz = c[:-1], c[1:], np.diff(z)
    c_r = np.interp(zr, kz, kc)
    mid = 0.5 * (z[:-1] + z[1:])
    above_s, above_r = (mid < zs).astype(float), (mid < zr).astype(float)
    neg_r, log_r = -r, np.log(r)
    arrival = np.empty((len(PathKind), r.size))
    for i, kind in enumerate(PathKind):
        legs = _legs(kind, above_s, above_r)
        on = legs > 0
        if on.any():
            first, last = np.flatnonzero(on)[[0, -1]]
            _, c_max, sin_phi, cos_phi = _grazing_angle(c[first : last + 2], legs[on] * dz[on], r, neg_r, log_r)
        else:  # the direct path with zs == zr crosses no slice: the horizontal ray
            touching = (z[:-1] == zs) | (z[1:] == zs)
            phi = np.full(r.shape, 0.0 if np.all(ca[touching] == cb[touching]) else np.nan)
            sin_phi, cos_phi, c_max = np.sin(phi), np.cos(phi), c_r
        angle = np.degrees(np.arctan2(_slant(sin_phi, c_max, c_r), cos_phi * c_r))
        arrival[i] = _SIGNS.get(kind, np.sign(zr - zs)) * angle
    return arrival


def find_eigenrays(wg: Waveguide, source: tuple[float, float]) -> dict[PathKind, EigenRay | None]:
    """Solve for the eigenrays of every path from ``source`` to the receiver.

    A kind with no boundary-guided eigenray is geometrically impossible
    there and maps to ``None``.  The arrivals agree with the same source in
    a grid row to rounding, not bit for bit: the one-range solve sums each
    path's slice runs in another order.
    """
    r_s, z_s = float(source[0]), float(source[1])
    arrival = eigenray_angles(wg, z_s, [r_s])[:, 0]
    return {kind: None if np.isnan(a) else EigenRay(float(a)) for kind, a in zip(PathKind, arrival)}
