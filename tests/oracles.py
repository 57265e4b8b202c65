"""Independent reference implementations used to check the package.

Everything here is written from the model definitions directly, with
brute-force enumeration instead of dynamic programming, image-source
geometry and a fixed-step ray march instead of closed-form layer sums, and
a binary-search, one-point bilinear interpolation instead of vectorized
cell arithmetic, so the tests never share code with the implementations
they verify.
"""

import bisect
import itertools
import math

import numpy as np

from swfocal.environment import PathKind


def valid_vectors(K: int, M: int):
    """All association vectors whose nonzero entries strictly increase."""
    for a in itertools.product(range(M + 1), repeat=K):
        last = 0
        ok = True
        for x in a:
            if x:
                if x <= last:
                    ok = False
                    break
                last = x
        if ok:
            yield a


def enum_marginal(z, angles, detect, sigma, mu, fa_density=1.0 / 180.0) -> float:
    """Brute-force association marginal: sum over valid vectors of
    |detections|! times the per-path miss/detection factors."""
    K = len(angles)
    M = len(z)
    total = 0.0
    for a in valid_vectors(K, M):
        c = sum(1 for x in a if x)
        if mu <= 0.0 and c != M:
            continue
        term = float(math.factorial(c))
        for k, x in enumerate(a):
            if x == 0:
                term *= 1.0 - detect[k]
            else:
                if detect[k] == 0.0 or math.isnan(angles[k]):
                    term = 0.0
                    break
                u = (z[x - 1] - angles[k]) / sigma[k]
                f = math.exp(-0.5 * u * u) / (sigma[k] * math.sqrt(2.0 * math.pi))
                term *= (detect[k] if mu <= 0.0 else detect[k] / mu) * f / fa_density
        total += term
    return total


class EnumTable:
    """Precomputed vector table for fast repeated brute-force marginals."""

    def __init__(self, K: int, M: int):
        vecs = np.array(list(itertools.product(range(M + 1), repeat=K)), dtype=np.int64)
        vecs = vecs.reshape(-1, K)
        valid = np.ones(len(vecs), dtype=bool)
        last = np.zeros(len(vecs), dtype=np.int64)
        for k in range(K):
            col = vecs[:, k]
            bad = (col != 0) & (col <= last)
            valid &= ~bad
            last = np.where(col != 0, col, last)
        self.K, self.M = K, M
        self.vecs = vecs[valid]
        self.counts = (self.vecs != 0).sum(axis=1)
        self.factorials = np.array([math.factorial(int(c)) for c in self.counts], dtype=float)

    def marginal(self, z, angles, detect, sigma, mu, fa_density=1.0 / 180.0) -> float:
        K, M = self.K, self.M
        r = np.zeros((K, M + 1))
        r[:, 0] = 1.0 - np.asarray(detect)
        for k in range(K):
            if detect[k] == 0.0 or math.isnan(angles[k]):
                continue
            u = (np.asarray(z) - angles[k]) / sigma[k]
            f = np.exp(-0.5 * u * u) / (sigma[k] * math.sqrt(2.0 * math.pi))
            r[k, 1:] = (detect[k] if mu <= 0.0 else detect[k] / mu) * f / fa_density
        terms = self.factorials * np.prod(
            r[np.arange(K)[None, :], self.vecs], axis=1
        )
        if mu <= 0.0:
            terms = np.where(self.counts == M, terms, 0.0)
        return float(terms.sum())


def bilinear_doa(grid, r: float, d: float) -> list:
    """Bilinear DOA of every path layer at (r, d), ``None`` where impossible.

    The cell is found by binary search: the last node at or below the
    point, and the cell below the top node at the roi maximum.  A corner of
    zero weight is ignored even where impossible; an impossible corner with
    weight makes the value ``None``.  Corners are summed in the order
    (i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1).
    """
    ranges, depths = grid.ranges.tolist(), grid.depths.tolist()
    i = min(max(bisect.bisect_right(ranges, r) - 1, 0), len(ranges) - 2)
    j = min(max(bisect.bisect_right(depths, d) - 1, 0), len(depths) - 2)
    fx = (r - ranges[i]) / (ranges[i + 1] - ranges[i])
    fy = (d - depths[j]) / (depths[j + 1] - depths[j])
    corners = (
        ((1 - fx) * (1 - fy), i, j),
        ((1 - fx) * fy, i, j + 1),
        (fx * (1 - fy), i + 1, j),
        (fx * fy, i + 1, j + 1),
    )
    out = []
    for k in range(len(grid.kinds)):
        total = None
        for w, a, b in corners:
            v = float(grid.values[a, b, k])
            term = 0.0
            if w > 0.0:
                if v == -math.inf:
                    total = None
                    break
                term = w * v
            total = term if total is None else total + term
        out.append(total)
    return out


def image_source_angles(bottom: float, receiver_depth: float, r: float, zs: float):
    """Closed-form arrival angles in an iso-velocity waveguide.

    Mirror geometry: the one-bounce and two-bounce paths are straight
    lines to image sources, positive angles arriving from above.
    """
    zr = receiver_depth
    return {
        PathKind.SB: math.degrees(math.atan2(zr + zs, r)),
        PathKind.DP: math.degrees(math.atan2(zr - zs, r)),
        PathKind.BB: -math.degrees(math.atan2(2.0 * bottom - zs - zr, r)),
        PathKind.SBB: -math.degrees(math.atan2(2.0 * bottom + zs - zr, r)),
    }


def march_rays(wg, depth, launch_deg, ranges, step=1.0, record=False):
    """Fixed-step ray march from range 0 to ``ranges``, one ray per entry.

    Integrates the ray equations with range as the variable: with the
    Snell constant xi = cos(theta) / c and zeta = sin(theta) / c,
    dz/dx = zeta / xi and dzeta/dx = -c'(z) / (c(z)**3 xi).  Each classical
    RK4 step of ``step`` meters uses the speed law of the layer the ray is
    in; a step that would leave the layer is cut, by two secant steps, to
    end on the layer edge, so no step straddles a kink in the profile.  At
    the surface and the bottom zeta reverses: a specular bounce, recorded
    by name.  The last step of each ray lands on its range.

    Returns ``(depth, angle_deg, bounces)`` at each ray's final range, and
    with ``record`` also the (n_steps + 1, n_rays, 3) track of (range,
    depth, angle_deg).
    """
    kz = np.array([z for z, _ in wg.ssp.knots])
    kc = np.array([c for _, c in wg.ssp.knots])
    b = wg.bottom_depth
    edges = np.unique(np.append(kz[kz < b], b))
    ce = np.interp(edges, kz, kc)
    grad = np.diff(ce) / np.diff(edges)

    def rk4(z, zeta, xi, layer, h):
        def rhs(z, zeta):
            c = ce[layer] + grad[layer] * (z - edges[layer])
            return zeta / xi, -grad[layer] / (c**3 * xi)

        k1 = rhs(z, zeta)
        k2 = rhs(z + 0.5 * h * k1[0], zeta + 0.5 * h * k1[1])
        k3 = rhs(z + 0.5 * h * k2[0], zeta + 0.5 * h * k2[1])
        k4 = rhs(z + h * k3[0], zeta + h * k3[1])
        return tuple(
            v + h / 6.0 * (a + 2.0 * p + 2.0 * q + d)
            for v, a, p, q, d in zip((z, zeta), k1, k2, k3, k4)
        )

    theta = np.radians(np.atleast_1d(np.asarray(launch_deg, dtype=float)))
    z = np.broadcast_to(np.asarray(depth, dtype=float), theta.shape).copy()
    ranges = np.broadcast_to(np.asarray(ranges, dtype=float), theta.shape)
    c0 = np.interp(z, kz, kc)
    xi, zeta = np.cos(theta) / c0, np.sin(theta) / c0
    x = np.zeros_like(z)
    bounces = [[] for _ in z]
    track = [np.stack([x, z, np.degrees(np.arctan2(zeta, xi))], axis=1)]
    while np.any(x < ranges):
        h = np.clip(ranges - x, 0.0, step)
        # the layer ahead of the motion, also at a layer edge
        ahead = np.where(zeta < 0.0, np.searchsorted(edges, z, "left"), np.searchsorted(edges, z, "right"))
        layer = np.clip(ahead - 1, 0, grad.size - 1)
        top, bot = edges[layer], edges[layer + 1]
        z1, zeta1 = rk4(z, zeta, xi, layer, h)
        edge = np.where(z1 < top, top, bot)
        cut = np.flatnonzero(((z1 < top) | (z1 > bot)) & (z != edge))
        if cut.size:
            args = (z[cut], zeta[cut], xi[cut], layer[cut])
            h_b, z_b = h[cut], z1[cut]
            for _ in range(2):
                h_b = h_b * (edge[cut] - args[0]) / (z_b - args[0])
                z_b, zeta_b = rk4(*args, h_b)
            h[cut], z1[cut], zeta1[cut] = h_b, edge[cut], zeta_b
        x, z, zeta = x + h, z1, zeta1
        for name, hit in (("surface", (z <= 0.0) & (zeta < 0.0)), ("bottom", (z >= b) & (zeta > 0.0))):
            for i in np.flatnonzero(hit):
                bounces[i].append(name)
            zeta = np.where(hit, -zeta, zeta)
        if record:
            track.append(np.stack([x, z, np.degrees(np.arctan2(zeta, xi))], axis=1))
    result = (z, np.degrees(np.arctan2(zeta, xi)), [tuple(bs) for bs in bounces])
    return result + (np.array(track),) if record else result
