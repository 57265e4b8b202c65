"""Probabilistic association of DOA observations to propagation paths.

At each epoch the DOA estimator returns M angles, sorted descending.  Each
modeled path is detected with probability ``d_k`` (zero where the path is
geometrically impossible) and then contributes a Gaussian-perturbed copy
of its modeled angle; the remaining observations are false alarms, Poisson
in number and uniformly distributed in angle.  An association vector ``a``
of length K maps each path to an observation index (0 for a missed
detection).  Because the modeled path angles are ordered and the
observations sorted, a vector is valid only if its nonzero entries
strictly increase with the path index.

For tracking, everything is folded into a per-path factor

    r_k(a_k) = 1 - d_k                                if a_k = 0
    r_k(a_k) = (d_k / mu_fa) * f_k(z_{a_k}) / f_fa    if a_k = m > 0

and the per-state update weight is the sum of ``|D_a|! * prod_k r_k(a_k)``
over valid vectors, where ``|D_a|`` counts the detected paths.  The
x-independent constant ``exp(-mu) * mu^M / M! * prod_m f_fa(z_m)`` is
dropped.  The sum runs over a number of vectors exponential in K, but a
dynamic program over paths computes it exactly.  Its state ``S[m, c]`` is
the sum over the paths so far with largest used observation index m and c
detections.  Path k either misses, which scales ``S[m, c]`` by
``1 - d_k``, or takes an observation m above every index used so far,
which adds ``r_k(m)`` times the prefix sum of ``S[m', c - 1]`` over
``m' < m``; the weight is then the sum of ``c! * S[m, c]``.
``marginal_likelihood_batch`` runs this path by path on a count-major
(K+1, M+1, J) array, indexed ``[c, m]``, with the J states innermost, so
each step is a few whole-array operations.  Its cost is O(K^2 M) per
state, and it skips three kinds of work whose result is known exactly:

* The triangle.  Before path k, ``S[m, c]`` is 0 for c > min(m, k): c
  detections need c observations, and only k paths came before.  So the
  detection branch from row m adds into counts 1..min(m, k) + 1 of row
  m + 1 only: row by row below row k, and as one block op over rows k
  and up, which all take counts 1..k + 1.  The miss factor scales counts
  0..k of every row, one contiguous block, in one op; the entries above
  the triangle that it touches are exact zeros, and ``0 * (1 - d_k)`` is
  +0.
* Rows far from every state.  Many (path, observation) rows of densities
  are exactly 0, the observation lying far from the path's angle at every
  state: about two thirds of the SB and DP rows of the default tracking
  run.  So the angles are taken path-major, as (K, J), and a row is
  computed only if its observation is within 39 sigma of the span of the
  path's angles.  Beyond that every exponent is below -760, where ``exp``
  is exactly 0 (it rounds to 0 below about -745.13).  The span is an
  interval and ``z`` descends, so each path's live rows are contiguous:
  two ``searchsorted`` calls on ``-z`` find them for every path at once,
  and the prefix sums stop at the last live row.
* The underflow correction.  In a live row ``exp`` runs on exponents
  clipped at -700, which keeps numpy in its fast vector loop, and is
  masked to 0 below; the few exponents in [-746, -700) are redone one by
  one.  When no live row of a path has an exponent below -700 or a
  ``nan`` angle, as for about half of the live rows of the default run,
  the clip, the mask and the redo would change nothing and are skipped.

Every skipped operation would have added or multiplied an exact 0, so the
result is that of the plain DP bit for bit.

Angles are degrees throughout; densities are per degree.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "ObservationSet",
    "PathPrediction",
    "path_likelihood",
    "conditional_pdf",
    "association_prior",
    "marginal_likelihood",
    "marginal_likelihood_batch",
]

# An association vector is a plain sequence of K integers in {0, ..., M}.
AssociationVector = Sequence[int]


@dataclass(frozen=True)
class ModelParams:
    """Detection, noise and clutter parameters of the observation model."""

    n_paths: int
    sigma_deg: tuple[float, ...]
    detect_prob: float = 0.9
    mu_fa: float = 2.0
    fa_support_deg: tuple[float, float] = (-90.0, 90.0)

    def __post_init__(self):
        object.__setattr__(self, "sigma_deg", tuple(float(s) for s in self.sigma_deg))
        if self.n_paths < 1:
            raise ValueError("need at least one propagation path")
        if len(self.sigma_deg) != self.n_paths:
            raise ValueError("need one noise standard deviation per path")
        # each check is written so that nan fails it
        if not all(0.0 < s < np.inf for s in self.sigma_deg):
            raise ValueError("sigma_deg: noise standard deviations must be positive and finite")
        if not 0.0 <= self.detect_prob <= 1.0:
            raise ValueError("detect_prob: detection probability must lie in [0, 1]")
        if not 0.0 <= self.mu_fa < np.inf:
            raise ValueError("mu_fa: mean false-alarm count must be finite and nonnegative")
        lo, hi = self.fa_support_deg
        if not -90.0 <= lo < hi <= 90.0:
            raise ValueError("fa_support_deg: false-alarm support must be a nonempty sub-interval of [-90, 90]")

    @property
    def fa_density(self) -> float:
        """Uniform false-alarm density per degree."""
        lo, hi = self.fa_support_deg
        return 1.0 / (hi - lo)


@dataclass(frozen=True)
class ObservationSet:
    """DOA observations of one epoch, sorted in descending order."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).reshape(-1)
        object.__setattr__(self, "z", z)
        # array methods rather than np.any/np.diff: read_observations builds one set per line
        if not np.isfinite(z).all():
            raise ValueError("non-finite observed angle")
        if (z < -90.0).any() or (z >= 90.0).any():
            raise ValueError("observed angles must lie in [-90, 90)")
        if (z[1:] > z[:-1]).any():
            raise ValueError("observations must be sorted in descending order")

    @property
    def M(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class PathPrediction:
    """Modeled angle and detection probability per path at one position.

    ``angles_deg`` holds ``nan`` where the path is geometrically
    impossible; such paths must carry zero detection probability.
    """

    angles_deg: np.ndarray
    detect_probs: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles_deg, dtype=float).reshape(-1)
        det = np.asarray(self.detect_probs, dtype=float).reshape(-1)
        object.__setattr__(self, "angles_deg", ang)
        object.__setattr__(self, "detect_probs", det)
        if ang.shape != det.shape:
            raise ValueError("angles and detection probabilities must align")
        if not np.all((det >= 0.0) & (det <= 1.0)):
            raise ValueError("detection probabilities must lie in [0, 1]")
        if np.any(np.isnan(ang) & (det != 0.0)):
            raise ValueError("impossible paths must have zero detection probability")

    @property
    def n_paths(self) -> int:
        return self.angles_deg.size


def is_valid(a: AssociationVector, M: int) -> bool:
    """Whether an association vector is admissible.

    Invalid exactly when some later path maps to an observation index not
    larger than an earlier path's nonzero index, i.e. the nonzero entries
    must strictly increase with the path index.
    """
    last = 0
    for a_k in a:
        a_k = int(a_k)
        if not 0 <= a_k <= M:
            raise ValueError(f"association entry {a_k} outside 0..{M}")
        if a_k != 0:
            if a_k <= last:
                return False
            last = a_k
    return True


def path_likelihood(z_m: float, angle_deg: float, sigma_deg: float) -> float:
    """Gaussian observation density (per degree) of one path's DOA."""
    if math.isnan(angle_deg):
        raise ValueError("no observation density for a geometrically impossible path")
    u = (z_m - angle_deg) / sigma_deg
    return math.exp(-0.5 * u * u) / (sigma_deg * math.sqrt(2.0 * math.pi))


def conditional_pdf(
    z: ObservationSet, pred: PathPrediction, a: AssociationVector, params: ModelParams
) -> float:
    """Joint density of the observation vector given state and association.

    The product of the false-alarm density over all M observations times,
    for each detected path, the ratio of the path density to the
    false-alarm density at its assigned observation.
    """
    if len(a) != pred.n_paths:
        raise ValueError("association vector length must match the path count")
    if not is_valid(a, z.M):
        raise ValueError("invalid association vector")
    density = params.fa_density ** z.M
    for k, a_k in enumerate(a):
        if a_k != 0:
            zm = float(z.z[a_k - 1])
            density *= path_likelihood(zm, pred.angles_deg[k], params.sigma_deg[k]) / params.fa_density
    return density


def association_prior(
    a: AssociationVector, M: int, pred: PathPrediction, params: ModelParams
) -> float:
    """Joint prior probability of an association vector and the count M."""
    entries = [int(a_k) for a_k in a]
    for a_k in entries:
        if not 0 <= a_k <= M:
            raise ValueError(f"association entry {a_k} outside 0..{M}")
    try:
        valid = is_valid(entries, M)
    except ValueError:
        valid = False
    if not valid:
        return 0.0
    detected = [k for k, a_k in enumerate(entries) if a_k != 0]
    c = len(detected)
    mu = params.mu_fa
    prob = math.exp(-mu) * mu ** (M - c) * math.factorial(c) / math.factorial(M)
    for k in range(pred.n_paths):
        d_k = float(pred.detect_probs[k])
        prob *= d_k if entries[k] != 0 else (1.0 - d_k)
    return prob


def marginal_likelihood(z: ObservationSet, pred: PathPrediction, params: ModelParams) -> float:
    """Update weight of one state: ``marginal_likelihood_batch`` on one row."""
    return float(
        marginal_likelihood_batch(z.z, pred.angles_deg[None], pred.detect_probs[None], params)[0]
    )


# exp(x) rounds to exactly 0 below x = ln(2**-1075) ~ -745.13, half the
# smallest subnormal.  An observation more than 39 sigma from every angle of
# a path has x = -u**2/2 < -760 at each, so that row of densities is exactly
# 0 and is skipped.  numpy's exp leaves its vector loop for arguments that
# underflow, at ten times the cost or more, so exp runs on max(x, -700) and
# is masked to 0 below -700; the few x in [-746, -700), whose exp is tiny
# or subnormal, are recomputed exactly.  The densities are those of the
# plain exp(x) / c bit for bit.
_GATE_SIGMA = 39.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EXP_FLOOR = -700.0
_EXP_ZERO = -746.0

# the DP's prefix sums are written before they are read, so one buffer per
# thread serves every call; a fresh multi-megabyte array per epoch would be
# served by mmap and faulted in anew each time
class _Scratch(threading.local):
    prefix = np.empty(0)


_scratch = _Scratch()


def _live_spans(z: np.ndarray, ang: np.ndarray, sigma) -> tuple[list[int], list[int]]:
    """Live rows ``first[k]..stop[k] - 1`` of each path, for descending ``z``.

    Row m of path k is live if ``z[m]`` lies within 39 ``sigma[k]`` of the
    span of row k of the path-major ``ang``.  ``nan`` angles are ignored;
    all ``nan`` gives ``first[k] >= stop[k]``, no row.
    """
    reach = _GATE_SIGMA * np.array(sigma)
    neg_z = -z
    first = neg_z.searchsorted(-(np.fmax.reduce(ang, axis=1, initial=-np.inf) + reach))
    stop = neg_z.searchsorted(-(np.fmin.reduce(ang, axis=1, initial=np.inf) - reach), side="right")
    return first.tolist(), stop.tolist()


def _densities(z: np.ndarray, angles: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian densities (len(z), len(angles)) of ``z`` about ``angles``; 0 at ``nan``."""
    u = np.subtract.outer(z, angles)
    u /= sigma
    x = -0.5 * u
    x *= u
    c = sigma * _SQRT_2PI
    # with no nan and no x below the floor, the clip and the mask change nothing
    clipped = not x.min() >= _EXP_FLOOR
    dens = np.exp(np.fmax(x, _EXP_FLOOR, out=u) if clipped else x, out=u)
    dens /= c
    if clipped:
        dens *= x >= _EXP_FLOOR  # also 0 at nan
        x = x.reshape(-1)
        tail = np.flatnonzero((x < _EXP_FLOOR) & (x >= _EXP_ZERO))
        dens.reshape(-1)[tail] = np.exp(x[tail]) / c
    return dens


def marginal_likelihood_batch(
    z_sorted: np.ndarray,
    angles_deg: np.ndarray,
    detect_probs: np.ndarray,
    params: ModelParams,
) -> np.ndarray:
    """Update weights of many states: exact sums over valid associations.

    ``angles_deg`` and ``detect_probs`` are (J, K) with ``nan`` marking
    impossible paths; ``z_sorted`` is the shared descending observation
    vector.  Returns a (J,) array of ``sum_a |D_a|! prod_k r_k(a_k)``; the
    state-independent constant of the joint posterior is dropped.  With
    ``mu_fa = 0`` false alarms are impossible and the sum collapses to the
    associations that explain every observation.

    Path by path, only observations within 39 sigma of the span of the
    path's angles get densities, and the detection branch updates only
    the counts that can be nonzero (see the module docstring); the result
    is the full DP's bit for bit.  The gate relies on the order, so
    ``z_sorted`` out of order, or with a ``nan``, raises ``ValueError``.
    Any memory layout is accepted; the transpose of a C-ordered (K, J)
    array, as ``interpolate_doa_many`` returns, is read without a copy.
    The prefix sums live in a per-thread scratch buffer that only grows,
    to the largest M * K * J float64 of any call on that thread (about
    3 MB at M = 10, K = 4, J = 10^4), and is kept between calls.
    """
    z = np.asarray(z_sorted, dtype=float).reshape(-1)
    # path-major: row k holds path k's angles at every state
    ang = np.ascontiguousarray(np.atleast_2d(np.asarray(angles_deg, dtype=float)).T)
    det = np.ascontiguousarray(np.atleast_2d(np.asarray(detect_probs, dtype=float)).T)
    K, J = ang.shape
    M = z.size
    mu = params.mu_fa
    if not (z[1:] <= z[:-1]).all():  # nan fails it too
        raise ValueError("observations must be sorted in descending order")

    if mu <= 0.0 and M > K:
        return np.zeros(J)

    first, stop = _live_spans(z, ang, params.sigma_deg[:K])

    miss = 1.0 - det
    # detection factors carry no 1/mu in the zero-clutter limit
    scale = det if mu <= 0.0 else det / mu
    # count-major, S[c, m]: the counts 0..k that path k touches are one
    # contiguous block
    S = np.zeros((K + 1, M + 1, J))
    S[0, 0] = 1.0
    if _scratch.prefix.size < M * K * J:
        _scratch.prefix = None  # free the old buffer before its successor exists
        _scratch.prefix = np.empty(M * K * J)
    for k in range(K):
        s, e = first[k], stop[k]
        # before path k, c detections need c observations and at most k
        # paths: S[c, m] is 0 for c > min(m, k), and so is P[c, m].  P[:, m]
        # sums S[:, 0..m] over counts 0..k up to the last live row; row by
        # row, which is cumsum's order but far faster than cumsum along an
        # outer axis
        if s < e:
            P = _scratch.prefix[: (k + 1) * e * J].reshape(k + 1, e, J)
            P[:, 0] = S[: k + 1, 0]
            for m in range(1, e):
                np.add(P[:, m - 1], S[: k + 1, m], out=P[:, m])
        # counts 0..k of every row in one op; the entries above the
        # triangle are exact zeros, and 0 * (1 - d) is +0
        S[: k + 1] *= miss[k]
        if s < e:
            hit = _densities(z[s:e], ang[k], params.sigma_deg[k])
            hit *= scale[k]
            hit /= params.fa_density
            # the detection from row m adds into counts 1..min(m, k) + 1 of
            # row m + 1: one by one below row k, as one block from row k on
            for m in range(s, min(k, e)):
                h, Pm = hit[m - s], P[: m + 1, m]
                S[1 : m + 2, m + 1] += np.multiply(h, Pm, out=Pm)
            b = max(s, k)
            if b < e:
                Pb = P[:, b:]
                Pb *= hit[b - s :]
                S[1 : k + 2, b + 1 : e + 1] += Pb

    # each state's sums run along its own contiguous row, so its weight
    # does not depend on the batch; a gemv down the columns of the
    # (counts, states) sums, ``_factorials(K) @ S.sum(axis=1)``, takes an
    # order that the BLAS kernel picks by batch size and position
    if mu <= 0.0:
        return math.factorial(M) * np.ascontiguousarray(S[M].T).sum(axis=1)
    return np.ascontiguousarray(S.sum(axis=1).T) @ _factorials(K)


@functools.lru_cache(maxsize=None)
def _factorials(K: int) -> np.ndarray:
    """0!, 1!, ..., K! as a read-only float array."""
    weights = np.array([math.factorial(c) for c in range(K + 1)], dtype=float)
    weights.flags.writeable = False
    return weights
