"""Probabilistic association of DOA observations to propagation paths.

At each epoch the DOA estimator returns M angles, sorted descending.  Each
modeled path is detected with probability ``d_k`` (zero where the path is
geometrically impossible) and then contributes a Gaussian-perturbed copy
of its modeled angle; the remaining observations are false alarms, Poisson
in number and uniform on [-90, 90) degrees.  An association vector ``a``
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
(K+1, L+1, J) array, indexed ``[c, m]``, with the J states innermost, so
each step is a few whole-array operations per count; its L rows are the
live observations defined below.  Its cost is O(K^2 L) per state, and it
skips four kinds of work whose result is known, exactly or, for far
rows, to within ``2**-100`` of the weight:

* The triangle and its zeros.  Before path k, ``S[m, c]`` is 0 for
  c > min(m, k): c detections need c observations, and only k paths came
  before.  Rows from ``top``, above the last one written, are 0 too.  So
  path k reads counts 0..k and writes counts 0..k+1, and of those it
  skips every entry that is always 0:

  - Count 0 lives only in row 0: ``S[m >= 1, 0]`` is 0.  So count 0's
    prefix is ``S[0, 0]`` itself, and its detection is ``r_k(m)`` times
    ``S[0, 0]``, taken before the path's miss factor scales it.
  - Count c >= 1 is 0 below row c, and so is all of it from c = top up.
    Its prefix starts at ``S[c, c]``, its miss factor covers rows
    c..top-1, and its detection the live rows from max(s, c) of the
    path's span s..e-1.
  - The final sum stops at row top-1, and adds counts 1..min(m, K) of
    each row m, the rows in sequence.

  On the default tracking run (J = 10^4, seed 0, every 4th epoch) that
  leaves, in passes over the J states per epoch, 8.8 of the 27.9 of the
  prefix sums, 14.8 of the 30.9 of the miss factors, 16.7 of the 24.8
  detection rows and 8.5 of the 22.9 of the final sum.  The entries
  skipped are exact zeros: ``0 * (1 - d_k)`` and ``0 * r_k(m)`` are +0
  for a d_k in [0, 1] and a finite ``r_k(m)``, and adding +0 changes
  nothing.  Only the entries that can be nonzero are ever read, so only
  they start at 0.
* Rows no path's gate reaches.  An observation outside the gate of every
  path (below) can only be clutter: its row is never written, and its
  densities, prefix sums and weight terms would all be exact zeros.  The
  DP runs on the union of the paths' live rows alone, L of the M (on the
  default tracking run, J = 10^4, seeds 0 and 1, 3.4 of 4.6 per epoch).
  Each path's live rows stay contiguous in that union.
* Rows far from every state.  With clutter (mu_fa > 0) and d_k < 1,
  every state's weight is at least its all-miss term, so at least the
  floor ``F = prod_k (1 - d_k)`` with d_k path k's largest detection
  probability in the batch.  A row whose observation lies more than G
  sigma beyond the span of a path's angles adds at most about
  ``exp(-G**2 / 2)`` times a bound on the other factors, and
  ``_gate_width`` picks G so that all such rows together carry less than
  ``2**-100 F``: 14-15 sigma at K = 4 and 12.8-13.3 sigma at K = 2 for
  the default model (a little less when a path is impossible at every
  state).  On the default tracking run (J = 10^4, seed 0) that cuts the
  live rows per epoch from 11.8 at 39 sigma to 8.0: SB 1.7 to 1.2, DP
  1.4 to 0.7, BB 4.4 to 3.2 and SBB 4.3 to 2.9.  Without a floor
  (mu_fa = 0, or a d_k of 1) G is 39 sigma, beyond which every exponent
  is below -760 and ``exp`` is exactly 0 (it rounds to 0 below about
  -745.13).  So the angles are taken path-major, as (K, J), and a row is
  computed only within G sigma of the span of the path's angles.  The
  span is an interval and ``z`` descends, so each path's live rows are
  contiguous: two ``searchsorted`` calls on ``-z`` find them for every
  path at once, and the prefix sums stop at the last live row.
* The underflow correction.  In a live row ``exp`` runs on exponents
  clipped at -700, which keeps numpy in its fast vector loop, and is
  masked to 0 below; the few exponents in [-746, -700) are redone one by
  one.  When no live row of a path has an exponent below -700, the clip,
  the mask and the redo would change nothing and are skipped: the
  densities are the plain ``exp`` where no angle is ``nan`` (about 62 %
  of the default run's density calls), and the plain ``exp`` with its
  ``nan`` results set to 0 where some are (about 36 %).

Every other skipped operation would have added or multiplied an exact 0.
So the result is within ``2**-100`` of the plain DP's, relatively, and
with no floor it is the plain DP's bit for bit in any batch, J = 1 included.

Angles are degrees throughout; densities are per degree.
"""

from __future__ import annotations

import math
import operator
import sys
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

    def __post_init__(self):
        object.__setattr__(self, "sigma_deg", tuple(float(s) for s in self.sigma_deg))
        if self.n_paths < 1:
            raise ValueError("need at least one propagation path")
        if len(self.sigma_deg) != self.n_paths:
            raise ValueError(f"sigma_deg: need one noise standard deviation per path, got {self.sigma_deg}")
        # each check is written so that nan fails it
        if not all(0.0 < s < np.inf for s in self.sigma_deg):
            raise ValueError(f"sigma_deg: noise standard deviations must be positive and finite, got {self.sigma_deg}")
        if not 0.0 <= self.detect_prob <= 1.0:
            raise ValueError(f"detect_prob: detection probability must lie in [0, 1], got {self.detect_prob}")
        if not 0.0 <= self.mu_fa < np.inf:
            raise ValueError(f"mu_fa: mean false-alarm count must be finite and nonnegative, got {self.mu_fa}")

    @property
    def fa_density(self) -> float:
        """False-alarm density per degree: clutter is uniform on [-90, 90)."""
        return 1.0 / 180.0


@dataclass(frozen=True)
class ObservationSet:
    """DOA observations of one epoch, sorted in descending order."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.ndim != 1:
            raise ValueError(f"doas: observed angles must form a list, got {z.tolist()}")
        # a valid set is accepted in one pass over Python floats, with no numpy
        # reduction: np.any, np.diff or an array method costs about a
        # microsecond on a handful of angles, and the simulator, the reader and
        # cmd_track each build a set per epoch.  Descending pairs bound every
        # angle by the first and the last, and nan fails every comparison.  The
        # ordered checks below run only to name the rule a refused set breaks.
        v = z.tolist()
        if not v or (v[0] < 90.0 and v[-1] >= -90.0 and all(map(operator.ge, v, v[1:]))):
            return
        if not np.isfinite(z).all():
            raise ValueError(f"doas: observed angles must be finite, got {z.tolist()}")
        if (z < -90.0).any() or (z >= 90.0).any():
            raise ValueError(f"doas: observed angles must lie in [-90, 90), got {z.tolist()}")
        if (z[1:] > z[:-1]).any():
            raise ValueError(f"doas: observations must be sorted in descending order, got {z.tolist()}")

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
    must strictly increase with the path index.  Every entry is checked
    first: one outside 0..M raises ``ValueError``, wherever it stands.
    """
    last, valid = 0, True
    for a_k in a:
        a_k = int(a_k)
        if not 0 <= a_k <= M:
            raise ValueError(f"association entry {a_k} outside 0..{M}")
        if a_k != 0:
            valid = valid and a_k > last
            last = a_k
    return valid


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
    if not is_valid(entries, M):
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


# The gate's half-width in sigmas, and its cap.  Each call gates by the
# marginal's floor (see ``_gate_width``), at 12.5-15 sigma for the default
# models.  Where no floor holds it gates at the cap, 39 sigma, beyond which
# x = -u**2/2 < -760 and exp(x) is exactly 0 (it rounds to 0 below
# ln(2**-1075) ~ -745.13, half the smallest subnormal).  numpy's exp
# leaves its vector loop for arguments that underflow, at ten times the
# cost or more, so exp runs on max(x, -700) and is masked to 0 below -700;
# the few x in [-746, -700), whose exp is tiny or subnormal, are
# recomputed exactly.  The densities are those of the plain exp(x) / c bit
# for bit.
_GATE_SIGMA = 39.0
# every skipped association weighs less than 2**-100 of the floor in total
_GATE_LOG_TOL = 100.0 * math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EXP_FLOOR = -700.0
_EXP_ZERO = -746.0
# a marginal whose bound (``_log_marginal_bound``) exceeds this could overflow the DP
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# the DP's prefix sums are written before they are read, so one buffer per
# thread serves every call; a fresh multi-megabyte array per epoch would be
# served by mmap and faulted in anew each time
class _Scratch(threading.local):
    prefix = np.empty(0)


_thread_scratch = _Scratch()


def _gate_width(d: np.ndarray, log_bound: float, mu: float) -> float:
    """Half-width in sigmas of the row gate for each path's largest
    detection probability ``d``, each in [0, 1], and ``log_bound`` their
    ``_log_marginal_bound``.

    With ``mu > 0`` and every detection probability below 1, each
    state's marginal is at least its all-miss term, so at least
    ``F = prod_k (1 - d_k)`` with ``d_k`` path k's largest detection
    probability in the batch.  A detection factor is at most
    ``A_k = (d_k / mu) / (sigma_k sqrt(2 pi) f_fa)``, and at most
    ``A_k exp(-G**2 / 2)`` from a row more than G sigma_k beyond the span
    of path k's angles.  A vector using such a row weighs at most
    ``K! R**K exp(-G**2 / 2)`` with ``R = max(1, A_k)``, and there are at
    most ``(M + 1)**K`` vectors, so at the G returned the rows skipped
    carry less than ``2**-100 F`` in all.  Without a floor (``mu = 0`` or
    a probability of 1) the gate is ``_GATE_SIGMA``, where every skipped
    density is exactly 0.
    """
    if not (mu > 0.0 and d.max(initial=0.0) < 1.0):
        return _GATE_SIGMA
    log_floor = float(np.log1p(-d).sum())
    return min(_GATE_SIGMA, math.sqrt(2.0 * (log_bound - log_floor + _GATE_LOG_TOL)))


def _log_marginal_bound(d: np.ndarray, params: ModelParams, M: int) -> float:
    """Log of ``K! ((M + 1) R)**K``, ``R`` as in ``_gate_width`` for each path's largest detection
    probability ``d``: with ``mu > 0`` it bounds every state's marginal, and every value of the DP.
    A ``mu`` so small that ``sigma_k sqrt(2 pi) f_fa mu`` is subnormal or 0 gives ``inf``, and a product that
    overflows a detection factor of 0; a path never detected is skipped.  In Python floats, which give
    these infinities with no warning and no numpy call."""
    unit = _SQRT_2PI * params.fa_density * params.mu_fa
    ratio = 1.0
    for d_k, s in zip(d.tolist(), params.sigma_deg):
        if d_k > 0.0:
            c = s * unit
            ratio = max(ratio, d_k / c if c > 0.0 else math.inf)
    return math.lgamma(d.size + 1) + d.size * math.log((M + 1) * ratio)


def _live_spans(z: np.ndarray, ang: np.ndarray, sigma, gate: float) -> tuple[list[int], list[int]]:
    """Live rows ``first[k]..stop[k] - 1`` of each path, for descending ``z``.

    Row m of path k is live if ``z[m]`` lies within ``gate * sigma[k]`` of
    the span of row k of the path-major ``ang``.  ``nan`` angles are
    ignored; all ``nan`` gives ``first[k] >= stop[k]``, no row.  The bounds
    are Python floats, so a reach beyond the float range is inf with no
    numpy warning: every row is live, and all ``nan`` sorts ``-inf + inf`` last.
    """
    neg_z = -z
    hi = np.fmax.reduce(ang, axis=1, initial=-np.inf).tolist()
    lo = np.fmin.reduce(ang, axis=1, initial=np.inf).tolist()
    first = neg_z.searchsorted([-(h + gate * s) for h, s in zip(hi, sigma)])
    stop = neg_z.searchsorted([-(l - gate * s) for l, s in zip(lo, sigma)], side="right")
    return first.tolist(), stop.tolist()


def _densities(z: np.ndarray, angles: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian densities (len(z), len(angles)) of ``z`` about ``angles``; 0 at ``nan``."""
    u = np.subtract.outer(z, angles)
    u /= sigma
    x = -0.5 * u
    x *= u
    c = sigma * _SQRT_2PI
    lo = x.min()  # nan if any angle is nan
    if lo >= _EXP_FLOOR or (lo != lo and np.fmin.reduce(x, axis=None) >= _EXP_FLOOR):
        # nothing below the floor: the plain exp.  exp(nan) is nan and every
        # other density positive, so fmax against 0 zeroes the nans alone
        dens = np.exp(x, out=u)
        dens /= c
        return dens if lo == lo else np.fmax(dens, 0.0, out=dens)
    dens = np.exp(np.fmax(x, _EXP_FLOOR, out=u), out=u)
    dens /= c
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

    Path by path, only observations within the gate of the span of the
    path's angles get densities, the DP runs on the rows some path's gate
    reaches, and path k touches only the entries that can be nonzero (see
    the module docstring).  The gate leaves out less than ``2**-100``
    of every state's weight, and with ``mu_fa = 0`` or a detection
    probability of 1, where it is 39 sigma, nothing but exact zeros: the
    result is then the full DP's bit for bit, in any batch, J = 1 included:
    the final sum takes the same order for every state.  With a floor a
    batch changes only the rows skipped, each time under ``2**-100``.
    The gate relies on the order, so ``z_sorted`` out of order, or with a
    ``nan``, raises ``ValueError``, as do a path count K other than
    ``params.n_paths``, ``detect_probs`` of another shape than
    ``angles_deg`` or with a value outside [0, 1] or ``nan``, and a
    clutter mean so small that the weights could overflow the float range
    (``_log_marginal_bound``).  Any memory layout
    is accepted; the transpose of a C-ordered (K, J) array, as
    ``interpolate_doa_many`` returns, is read without a copy.
    The prefix sums of counts 1..K-1 live in a per-thread scratch buffer
    that only grows, to the largest L * (K - 1) * J float64 of any call on
    that thread, with L the live rows (at most M; 2.4 MB at L = 10, K = 4,
    J = 10^4), and is kept between calls.
    """
    z = np.asarray(z_sorted, dtype=float).reshape(-1)
    ang = np.atleast_2d(np.asarray(angles_deg, dtype=float))
    det = np.atleast_2d(np.asarray(detect_probs, dtype=float))
    if det.shape != ang.shape:
        raise ValueError(f"detect_probs has shape {det.shape}, angles_deg {ang.shape}")
    # path-major: row k holds path k's angles at every state
    ang, det = np.ascontiguousarray(ang.T), np.ascontiguousarray(det.T)
    K, J = ang.shape
    M = z.size
    mu = params.mu_fa
    if K != params.n_paths:
        raise ValueError(f"angles_deg has {K} paths, the model {params.n_paths}")
    # one pass over Python floats, as in ObservationSet; nan fails it too
    zs = z.tolist()
    if not all(map(operator.ge, zs, zs[1:])):
        raise ValueError("observations must be sorted in descending order")
    # 1 - d and d / mu are then finite and nonnegative, and every entry the
    # DP skips is an exact +0 (nan fails the check too)
    d = det.max(axis=1, initial=0.0)
    if not (det.min(initial=1.0) >= 0.0 and d.max(initial=0.0) <= 1.0):
        bad = det.T[~((det.T >= 0.0) & (det.T <= 1.0))]
        raise ValueError(f"detect_probs: must lie in [0, 1], got {bad[0]}")

    if mu <= 0.0 and M > K:
        return np.zeros(J)

    # a tiny clutter mean would overflow the DP: refused before it runs
    log_bound = math.inf  # no bound holds without clutter
    if mu > 0.0 and (log_bound := _log_marginal_bound(d, params, M)) > _LOG_FLOAT_MAX:
        raise ValueError(
            f"mu_fa: must be 0, for no clutter, or large enough that the association marginal stays in "
            f"the float range (its bound is e^{log_bound:.0f} here), got {mu}"
        )
    gate = _gate_width(d, log_bound, mu)
    first, stop = _live_spans(z, ang, params.sigma_deg, gate)
    # the DP runs on the union of the live rows: a row no path's gate
    # reaches is never written, and its S rows stay exact zeros.  Each
    # path's span is contiguous in the union too, so it stays one block
    live = sorted({m for s, e in zip(first, stop) for m in range(s, e)})
    at = {m: i for i, m in enumerate(live)}
    spans = [(at[s], at[s] + e - s) if s < e else (0, 0) for s, e in zip(first, stop)]
    z = z[live]
    L = len(live)

    miss = 1.0 - det
    # count-major, S[c, m]: count c's rows c.. are one contiguous block, and
    # only they are ever read, so only they start at 0
    S = np.empty((K + 1, L + 1, J))
    S[0, 0] = 1.0  # no path yet: no detection, no observation
    for c in range(1, K + 1):
        S[c, c:] = 0.0
    if _thread_scratch.prefix.size < (K - 1) * L * J:
        _thread_scratch.prefix = None  # free the old buffer before its successor exists
        _thread_scratch.prefix = np.empty((K - 1) * L * J)
    top = 1  # rows top.. are exact zeros: no path has written them yet
    for k in range(K):
        s, e = spans[k]
        # before path k, count 0 is S[0, 0] alone and count c >= 1 lives in
        # rows c..top - 1, for c <= k: counts 1..n reach the detection
        n = min(k, top - 1, e - 1)
        if n > 0:
            # P[c - 1, m] sums S[c, c..m] up to the last live row; row by
            # row, which is cumsum's order but far faster than cumsum along
            # an outer axis.  It starts at S[c, c] itself, which the sum
            # from row 0, 0 + S[c, c], equals exactly
            P = _thread_scratch.prefix[: n * e * J].reshape(n, e, J)
            for c in range(1, n + 1):
                P[c - 1, c] = S[c, c]
            for m in range(2, e):
                h = min(m - 1, n)
                np.add(P[:h, m - 1], S[1 : h + 1, m], out=P[:h, m])
        for c in range(1, min(k, top - 1) + 1):
            S[c, c:top] *= miss[k]
        if s < e:
            hit = _densities(z[s:e], ang[k], params.sigma_deg[k])
            # detection factors carry no 1/mu in the zero-clutter limit
            hit *= det[k] if mu <= 0.0 else det[k] / mu
            hit /= params.fa_density
            # the detection from live row m adds count c of its prefix into
            # count c + 1 of row m + 1, over the rows where count c lives
            for c in range(1, n + 1):
                b = max(s, c)
                Pc = P[c - 1, b:]
                Pc *= hit[b - s :]
                S[c + 1, b + 1 : e + 1] += Pc
            # count 0's prefix is S[0, 0] in every row, taken before its miss factor
            hit *= S[0, 0]
            S[1, s + 1 : e + 1] += hit
            top = max(top, e + 1)
        S[0, 0] *= miss[k]

    # rows in sequence, then c detections weighted c! count by count: the
    # same order in any batch.  Count c >= 1 lives in rows c..top - 1 alone.
    # Without clutter only c = M explains every observation
    total = np.zeros((K + 1, J))
    total[0] = S[0, 0]
    for m in range(1, top):
        h = min(m, K)
        total[1 : h + 1] += S[1 : h + 1, m]
    if mu <= 0.0:
        return math.factorial(M) * total[M]
    for c in range(1, min(K, top - 1) + 1):
        total[0] += total[c] * math.factorial(c)
    return total[0]
