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
``marginal_likelihood_batch`` runs this path by path on an (M+1, K+1, J)
array with the J states innermost, so each step is a few whole-array
operations.  Before path k only counts 0..k can be nonzero, and only
those are updated; the cost is O(K^2 M) per state.

Angles are degrees throughout; densities are per degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "ObservationSet",
    "PathPrediction",
    "is_valid",
    "path_likelihood",
    "conditional_pdf",
    "association_prior",
    "unnormalized_factor_r",
    "marginal_likelihood",
    "marginal_likelihood_batch",
    "count_valid",
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
        if any(s <= 0 for s in self.sigma_deg):
            raise ValueError("noise standard deviations must be positive")
        if not 0.0 <= self.detect_prob <= 1.0:
            raise ValueError("detection probability must lie in [0, 1]")
        if self.mu_fa < 0.0:
            raise ValueError("mean false-alarm count must be nonnegative")
        lo, hi = self.fa_support_deg
        if not -90.0 <= lo < hi <= 90.0:
            raise ValueError("false-alarm support must be a nonempty sub-interval of [-90, 90]")

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
        if not np.all(np.isfinite(z)):
            raise ValueError("observed angles must be finite")
        if z.size and (np.any(z < -90.0) or np.any(z >= 90.0)):
            raise ValueError("observed angles must lie in [-90, 90)")
        if np.any(np.diff(z) > 0.0):
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
        if np.any((det < 0.0) | (det > 1.0)):
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


def unnormalized_factor_r(
    z: ObservationSet, pred: PathPrediction, k: int, a_k: int, params: ModelParams
) -> float:
    """Combined association-prior and likelihood factor for one path."""
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


def marginal_likelihood(z: ObservationSet, pred: PathPrediction, params: ModelParams) -> float:
    """Update weight of one state: ``marginal_likelihood_batch`` on one row."""
    return float(
        marginal_likelihood_batch(z.z, pred.angles_deg[None], pred.detect_probs[None], params)[0]
    )


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
    """
    z = np.asarray(z_sorted, dtype=float).reshape(-1)
    ang = np.atleast_2d(np.asarray(angles_deg, dtype=float))
    det = np.atleast_2d(np.asarray(detect_probs, dtype=float))
    J, K = ang.shape
    M = z.size
    mu = params.mu_fa
    sig = np.asarray(params.sigma_deg)

    if mu <= 0.0 and M > K:
        return np.zeros(J)

    # detection factors carry no 1/mu in the zero-clutter limit
    scale = det if mu <= 0.0 else det / mu
    S = np.zeros((M + 1, K + 1, J))
    S[0, 0] = 1.0
    for k in range(K):
        # before path k at most k detections exist: counts above k are zero.
        # prefix[m] sums S[0..m]; row by row, which is cumsum's order but
        # far faster than cumsum along an outer axis
        prefix = S[:M, : k + 1].copy()
        for m in range(1, M):
            prefix[m] += prefix[m - 1]
        S[:, : k + 2] *= 1.0 - det[:, k]
        if M:
            u = (z[:, None] - ang[:, k]) / sig[k]
            dens = np.exp(-0.5 * u * u) / (sig[k] * np.sqrt(2.0 * np.pi))
            dens = np.where(np.isnan(dens), 0.0, dens)
            hit = scale[:, k] * dens / params.fa_density  # (M, J)
            S[1:, 1 : k + 2] += np.multiply(hit[:, None, :], prefix, out=prefix)

    # each state's sums run along a contiguous row, in numpy's pairwise
    # order, which the tracker's estimates are pinned to
    if mu <= 0.0:
        return math.factorial(M) * np.ascontiguousarray(S[:, M].T).sum(axis=1)
    weights = np.array([math.factorial(c) for c in range(K + 1)], dtype=float)
    return np.ascontiguousarray(S.sum(axis=0).T) @ weights


def count_valid(K: int, M: int) -> int:
    """Number of admissible association vectors for K paths, M observations.

    Choosing which c paths detect and which c observations they take fixes
    the assignment (indices must increase), so the count is the sum over c
    of C(K, c) * C(M, c).
    """
    if K < 0 or M < 0:
        raise ValueError("path and observation counts must be nonnegative")
    return sum(math.comb(K, c) * math.comb(M, c) for c in range(min(K, M) + 1))
