"""Independent reference implementations used to check the package.

Everything here is written from the model definitions directly, with
brute-force enumeration, a dense dynamic program and a gated one that
skips no structural zero but the triangle instead of the package's, a
row-by-row gate mask instead of the search on sorted observations, the
gate's width written out from its definition,
image-source geometry and a fixed-step ray march instead of closed-form
layer sums, the row-major range sum instead of the node-major one, and a
binary-search, one-point bilinear interpolation and the minimum of the
four corner weights instead of vectorized cell arithmetic and the
fraction-based edge rule, a stochastic truth stepped row by row with
``rng.normal`` draws instead of the tracker's motion step, observation sets
drawn and sorted epoch by epoch instead of in one whole-run sort, the
observation rules as ordered numpy reductions and element-by-element JSON
reads instead of one pass over Python floats, and ``json.dumps`` of each
record instead of the writer's own formatting, so the tests never share
code with the implementations they verify.  The last section holds small
one-value helpers that only the tests use.
"""

import bisect
import itertools
import json
import math

import numpy as np

from swfocal.assoc import ModelParams, ObservationSet, PathPrediction, path_likelihood
from swfocal.environment import PathKind
from swfocal.grid import DoaGrid, interpolate_doa_many


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


def dense_dp_marginal(z, angles, detect, sigma, mu, fa_density=1.0 / 180.0) -> np.ndarray:
    """The association DP over every observation row and every count.

    ``angles`` and ``detect`` are (J, K).  The state ``S[m, c]`` is
    (M+1, K+1, J); path k scales all of it by its miss factor and adds its
    detection branch, ``r_k(m)`` times the running sum of ``S[:m]``, into
    every row and count, with the plain densities ``exp(x) / c`` (0 at a
    ``nan`` angle) and no row gate, no triangle and no clipped ``exp``.
    Every skipped term of ``marginal_likelihood_batch`` is an exact 0 here,
    and the final weighted sum is taken in the same order, rows and then
    counts, so the two agree bit for bit.
    """
    z = np.asarray(z, dtype=float)
    ang = np.asarray(angles, dtype=float).T
    det = np.asarray(detect, dtype=float).T
    K, J = ang.shape
    M = z.size
    if mu <= 0.0 and M > K:
        return np.zeros(J)
    S = np.zeros((M + 1, K + 1, J))
    S[0, 0] = 1.0
    for k in range(K):
        P = np.cumsum(S[:M], axis=0)
        S *= 1.0 - det[k]
        u = (z[:, None] - ang[k]) / sigma[k]
        x = -0.5 * u * u
        c = sigma[k] * math.sqrt(2.0 * math.pi)
        with np.errstate(invalid="ignore"):
            dens = np.where(np.isnan(x), 0.0, np.exp(x) / c)
        hit = dens * (det[k] if mu <= 0.0 else det[k] / mu) / fa_density
        S[1:, 1:] += hit[:, None, :] * P[:, :K]
    total = S[0].copy()
    for m in range(1, M + 1):
        total += S[m]
    if mu <= 0.0:
        return math.factorial(M) * total[M]
    for c in range(1, K + 1):
        total[0] += total[c] * math.factorial(c)
    return total[0]


def gated_dp_marginal(z, angles, detect, sigma, mu, fa_density=1.0 / 180.0) -> np.ndarray:
    """The gated association DP with no structural zero skipped but the triangle.

    ``angles`` and ``detect`` are (J, K), every detection probability in
    [0, 1].  The rows and the gate are those of ``marginal_likelihood_batch``:
    the same gate width, from the same expressions, the union of each
    path's rows within it of the span of the path's angles, and the same
    densities.  Then path k scales counts 0..k of every row written so far
    by its miss factor, and adds counts 0..k of the running sum over all
    rows, in one block, into counts 1..k+1 of the next row; the final sum
    adds every row, then the counts.  Every entry the package skips beyond
    that is an exact 0 here, so the two agree bit for bit, the floor on or
    off.
    """
    z = np.asarray(z, dtype=float)
    ang = np.ascontiguousarray(np.asarray(angles, dtype=float).T)
    det = np.ascontiguousarray(np.asarray(detect, dtype=float).T)
    K, J = ang.shape
    M = z.size
    if mu <= 0.0 and M > K:
        return np.zeros(J)
    d = det.max(axis=1, initial=0.0)
    gate = 39.0
    if mu > 0.0 and d.max(initial=0.0) < 1.0:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c = np.array(sigma) * (math.sqrt(2.0 * math.pi) * fa_density * mu)
            ratio = float(np.fmax.reduce(d / c, initial=1.0))
        log_bound = math.lgamma(K + 1) + K * math.log((M + 1) * ratio)
        log_floor = float(np.log1p(-d).sum())
        gate = min(39.0, math.sqrt(2.0 * (log_bound - log_floor + 100.0 * math.log(2.0))))
    neg_z = -z
    hi = np.fmax.reduce(ang, axis=1, initial=-np.inf).tolist()
    lo = np.fmin.reduce(ang, axis=1, initial=np.inf).tolist()
    first = neg_z.searchsorted([-(h + gate * s) for h, s in zip(hi, sigma)]).tolist()
    stop = neg_z.searchsorted([-(l - gate * s) for l, s in zip(lo, sigma)], side="right").tolist()
    live = sorted({m for s, e in zip(first, stop) for m in range(s, e)})
    at = {m: i for i, m in enumerate(live)}
    spans = [(at[s], at[s] + e - s) if s < e else (0, 0) for s, e in zip(first, stop)]
    z = z[live]
    L = len(live)
    miss = 1.0 - det
    scale = det if mu <= 0.0 else det / mu
    S = np.zeros((K + 1, L + 1, J))
    S[0, 0] = 1.0
    top = 1
    for k in range(K):
        s, e = spans[k]
        if s < e:
            P = np.empty((k + 1, e, J))
            P[:, 0] = S[: k + 1, 0]
            for m in range(1, e):
                np.add(P[:, m - 1], S[: k + 1, m], out=P[:, m])
        S[: k + 1, :top] *= miss[k]
        if s < e:
            u = (z[s:e, None] - ang[k]) / sigma[k]
            x = -0.5 * u * u
            with np.errstate(invalid="ignore"):
                hit = np.where(np.isnan(x), 0.0, np.exp(x) / (sigma[k] * math.sqrt(2.0 * math.pi)))
            hit *= scale[k]
            hit /= fa_density
            Ps = P[:, s:]
            Ps *= hit
            S[1 : k + 2, s + 1 : e + 1] += Ps
            top = max(top, e + 1)
    total = S[:, 0].copy()
    for m in range(1, L + 1):
        total += S[:, m]
    if mu <= 0.0:
        return math.factorial(M) * total[M]
    for c in range(1, K + 1):
        total[0] += total[c] * math.factorial(c)
    return total[0]


def gate_mask(z, angles, sigma: float, gate: float) -> np.ndarray:
    """The observations within ``gate`` sigma of the span of one path's angles.

    A boolean mask over ``z``, tested row by row: ``nan`` angles are
    ignored, and all ``nan`` selects no row.
    """
    lo = np.fmin.reduce(angles, initial=np.inf)
    hi = np.fmax.reduce(angles, initial=-np.inf)
    reach = gate * sigma
    return (z >= lo - reach) & (z <= hi + reach)


def gate_width(detect, sigma, mu, M, fa_density=1.0 / 180.0) -> float:
    """The association gate's half-width in sigmas, from its definition.

    ``detect`` is (J, K).  With clutter and every probability in [0, 1),
    path k's largest probability d_k gives the floor F = prod (1 - d_k)
    and the detection-factor bound A_k = (d_k / mu) / (sigma_k sqrt(2 pi)
    f_fa); with R = max(1, A_k) the gate is
    sqrt(2 (ln K! + K ln((M + 1) R) - ln F + 100 ln 2)), capped at 39.
    Otherwise it is 39.
    """
    detect = np.asarray(detect, dtype=float)
    K = detect.shape[1]
    if not (mu > 0.0 and ((detect >= 0.0) & (detect < 1.0)).all()):
        return 39.0
    d = [max(detect[:, k], default=0.0) for k in range(K)]
    floor = math.prod(1.0 - d_k for d_k in d)
    R = max([1.0] + [d_k / mu / (s * math.sqrt(2.0 * math.pi) * fa_density) for d_k, s in zip(d, sigma)])
    g2 = 2.0 * (math.log(math.factorial(K)) + K * math.log((M + 1) * R) - math.log(floor) + 100.0 * math.log(2.0))
    return min(39.0, math.sqrt(g2))


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


def axis_cell(nodes: list, x: float) -> tuple[int, float]:
    """Cell index and fraction of ``x`` on the sorted ``nodes``, by binary
    search: the last node at or below ``x``, the cell below the top node at
    the top node itself."""
    i = min(max(bisect.bisect_right(nodes, x) - 1, 0), len(nodes) - 2)
    return i, (x - nodes[i]) / (nodes[i + 1] - nodes[i])


def bilinear_doa(grid, r: float, d: float) -> list:
    """Bilinear DOA of every path layer at (r, d), ``None`` where impossible.

    The cell is found by binary search (``axis_cell``).  A corner of
    zero weight is ignored even where impossible; an impossible corner with
    weight makes the value ``None``.  Corners are summed in the order
    (i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1).
    """
    i, fx = axis_cell(grid.ranges.tolist(), r)
    j, fy = axis_cell(grid.depths.tolist(), d)
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
                if math.isnan(v):
                    total = None
                    break
                term = w * v
            total = term if total is None else total + term
        out.append(total)
    return out


def min_weight_edge_rows(fx, fy) -> np.ndarray:
    """Rows where the smallest of the four bilinear weights is exactly 0."""
    gx, gy = 1 - fx, 1 - fy
    return np.flatnonzero(np.min([gx * gy, gx * fy, fx * gy, fx * fy], axis=0) == 0.0)


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


def row_major_path_range(phi, c, num, base):
    """The closed-form path range as a (rays, nodes) array, summed per ray.

    ``c``, ``num`` and ``base`` are the node speeds, slice numerators and
    ``phi``-independent slant terms of ``environment._grazing_angle``.
    This is the solver's former row-major evaluation.  Its per-ray sum runs
    in numpy's pairwise order, not the node-major one's row by row, so it
    bounds the node-major range within a few ulps rather than bit for bit.
    """
    phi = np.asarray(phi)[..., None]
    # _slant at each node, shared by the two slices that meet there
    s = np.sqrt(base + (c * np.sin(phi)) ** 2)
    with np.errstate(divide="ignore"):
        runs = num / (s[..., :-1] + s[..., 1:])
    return np.cos(phi[..., 0]) * runs.sum(axis=-1)


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


# ---------------------------------------------------------------------------
# One-value helpers used only by the tests
# ---------------------------------------------------------------------------


# the boundary interactions of each path from source to receiver, in order,
# as ``march_rays`` names them
BOUNCE_SIGNATURE = {
    PathKind.SB: ("surface",),
    PathKind.DP: (),
    PathKind.BB: ("bottom",),
    PathKind.SBB: ("surface", "bottom"),
}


def stochastic_truth_states(cfg, seed: int) -> np.ndarray:
    """States of a stochastic truth at every epoch of scenario ``cfg``, before
    any truncation: one row per step, its driving noise drawn by
    ``rng.normal`` and the step written as three stacked components."""
    rng = np.random.default_rng(seed)
    times = cfg.epoch_times()
    states = np.zeros((times.size, 3))
    states[:1] = (cfg.initial_range_m, cfg.initial_depth_m, cfg.initial_speed_mps)
    for i in range(1, times.size):
        u1 = rng.normal(0.0, np.sqrt(cfg.motion.accel_var))
        u2 = rng.normal(0.0, np.sqrt(cfg.motion.depth_var))
        T = float(times[i] - times[i - 1])
        r, d, v = states[i - 1]
        states[i] = (r + T * v + 0.5 * T * T * u1, d + T * u2, v + T * u1)
    return states


def observation_loop(truth, grid, params: ModelParams, seed: int) -> list[np.ndarray]:
    """Each epoch's observed angles, drawn and assembled epoch by epoch: the
    possible paths detected with ``params.detect_prob`` and observed with
    Gaussian noise, a Poisson count of uniform false alarms, all clipped to
    [-90, 90), sorted ascending by a stable sort and reversed."""
    rng = np.random.default_rng(seed)
    angles = interpolate_doa_many(grid, truth.states[:, :2])
    upper = np.nextafter(90.0, -90.0)
    sigma = np.asarray(params.sigma_deg)
    out = []
    with np.errstate(over="ignore"):
        for ang in angles:
            possible = ~np.isnan(ang)
            detected = possible & (rng.random(ang.size) < params.detect_prob)
            doas = ang[detected] + rng.normal(0.0, 1.0, int(detected.sum())) * sigma[detected]
            n_fa = rng.poisson(params.mu_fa)
            fa = rng.uniform(-90.0, 90.0, n_fa)
            z = np.clip(np.concatenate([doas, fa]), -90.0, upper)
            out.append(np.sort(z, kind="stable")[::-1])
    return out


def observation_refusal(z) -> str | None:
    """The message refusing angles ``z`` as one epoch's observations, or
    ``None`` for a valid set: a list, then finite, then in [-90, 90), then
    descending, each rule one numpy reduction over the whole array."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        return f"doas: observed angles must form a list, got {z.tolist()}"
    if not np.all(np.isfinite(z)):
        return f"doas: observed angles must be finite, got {z.tolist()}"
    if np.any(z < -90.0) or np.any(z >= 90.0):
        return f"doas: observed angles must lie in [-90, 90), got {z.tolist()}"
    if np.any(np.diff(z) > 0.0):
        return f"doas: observations must be sorted in descending order, got {z.tolist()}"
    return None


def json_numbers(v, key: str) -> tuple[float, ...]:
    """JSON list ``v`` of numbers read element by element, a bool being no
    number, each element refused at its own key path, such as ``doas[3]``."""
    if not isinstance(v, list):
        raise ValueError(f"{key}: must be a list of numbers, got {v!r}")
    out = []
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{key}[{i}]: must be a JSON number, got {x!r}")
        try:
            out.append(float(x))
        except OverflowError:
            raise ValueError(f"{key}[{i}]: must be a JSON number in the float range") from None
    return tuple(out)


def observation_lines(records) -> str:
    """Observation records (t_index, time_s, doas) as JSON lines, each the
    ``json.dumps`` of its record as a dict."""
    return "".join(
        json.dumps({"t_index": int(t), "time_s": float(time_s), "doas": [float(a) for a in doas]}) + "\n"
        for t, time_s, doas in records
    )


def sound_speed_at(ssp, depth_m: float) -> float:
    """Sound speed at ``depth_m`` by linear interpolation between knots.

    Raises ``ValueError`` if the depth lies outside the profile support.
    """
    if not 0.0 <= depth_m <= ssp.max_depth:
        raise ValueError(f"depth {depth_m} m outside profile support [0, {ssp.max_depth}] m")
    zs = np.array([z for z, _ in ssp.knots])
    cs = np.array([c for _, c in ssp.knots])
    return float(np.interp(depth_m, zs, cs))


def unnormalized_factor_r(
    z: ObservationSet, pred: PathPrediction, k: int, a_k: int, params: ModelParams
) -> float:
    """Combined association-prior and likelihood factor ``r_k(a_k)`` for one path."""
    if params.mu_fa <= 0.0:
        raise ValueError("per-path factors need a positive mean false-alarm count")
    if not 0 <= a_k <= z.M:
        raise ValueError(f"association entry {a_k} outside 0..{z.M}")
    d_k = float(pred.detect_probs[k])
    if a_k == 0:
        return 1.0 - d_k
    if d_k == 0.0:
        return 0.0
    zm = float(z.z[a_k - 1])
    f_k = path_likelihood(zm, pred.angles_deg[k], params.sigma_deg[k])
    return (d_k / params.mu_fa) * f_k / params.fa_density


def count_valid(K: int, M: int) -> int:
    """Number of admissible association vectors for K paths, M observations.

    Choosing which c paths detect and which c observations they take fixes
    the assignment (indices must increase), so the count is the sum over c
    of C(K, c) * C(M, c).
    """
    if K < 0 or M < 0:
        raise ValueError("path and observation counts must be nonnegative")
    return sum(math.comb(K, c) * math.comb(M, c) for c in range(min(K, M) + 1))


def interpolate_doa(grid: DoaGrid, p: tuple[float, float], k: int) -> float | None:
    """``interpolate_doa_many`` at one point for path layer ``k``; ``None`` where impossible."""
    if not 0 <= k < len(grid.kinds):
        raise ValueError(f"path layer index {k} out of range")
    v = interpolate_doa_many(grid, np.array([[p[0], p[1]]], dtype=float))[0, k]
    return None if np.isnan(v) else float(v)
