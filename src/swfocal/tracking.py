"""Particle-based tracking of source range, depth and range speed.

The state evolves with a nearly constant-velocity model in range and a
nearly constant-location model in depth: over a step of length T,

    range' = range + T * speed + (T^2 / 2) * u1
    depth' = depth + T * u2
    speed' = speed + T * u1

with independent zero-mean Gaussian driving noise (u1, u2).  Each epoch
every particle is reweighted by the exact association marginal of the
observed DOAs at its position (modeled angles interpolated from the
precomputed grid, detection probability zero where a path is impossible
or the particle left the region of interest), weights are renormalized,
and systematic resampling runs whenever the effective sample size drops
below half the particle count.  The state estimate is the weighted
particle mean.

The association marginal is computed in the linear domain; the update
only takes its logarithm to combine it with the prior weights.  A
marginal that underflows to exactly zero therefore counts as zero
likelihood, and when no particle keeps a positive weight (every particle
left the region of interest, or every likelihood inside it is zero) the
run aborts with ``DegeneracyError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swfocal.assoc import ModelParams, ObservationSet, marginal_likelihood_batch
from swfocal.grid import DoaGrid, interpolate_doa_many

__all__ = [
    "SourceState",
    "MotionParams",
    "PriorParams",
    "ParticleSet",
    "DegeneracyError",
    "init_particles",
    "predict",
    "predict_particles",
    "update",
    "effective_sample_size",
    "resample",
    "mmse_estimate",
    "run_tracker",
]


@dataclass(frozen=True)
class SourceState:
    range_m: float
    depth_m: float
    speed_mps: float


@dataclass(frozen=True)
class MotionParams:
    """Driving-noise variances and nominal step of the motion model."""

    accel_var: float = 0.05   # m^2/s^4, range driving noise
    depth_var: float = 0.1    # m^2/s^2, depth driving noise
    step_s: float = 2.048

    def __post_init__(self):
        # each check is written so that nan fails it
        for name in ("accel_var", "depth_var"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name}: driving-noise variance must be finite and nonnegative")
        if not 0.0 < self.step_s < np.inf:
            raise ValueError("step_s: nominal step must be positive and finite")


@dataclass(frozen=True)
class PriorParams:
    """Uninformative initial prior: uniform position, Gaussian speed."""

    roi: tuple[float, float, float, float]  # range_min, range_max, depth_min, depth_max
    speed_std: float = 5.0

    def __post_init__(self):
        r0, r1, d0, d1 = self.roi
        if not np.isfinite(self.roi).all():
            raise ValueError("roi: prior region of interest must be finite")
        if not (r0 < r1 and d0 < d1):
            raise ValueError("roi: prior region of interest is empty")
        if not 0.0 < self.speed_std < np.inf:
            raise ValueError("speed_std: speed prior standard deviation must be positive and finite")


@dataclass
class ParticleSet:
    """J weighted samples of the source state.

    ``states`` is (J, 3) as [range_m, depth_m, speed_mps]; ``weights``
    sum to one.
    """

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.states.shape != (self.weights.size, 3):
            raise ValueError("particle states must be (J, 3) with J weights")

    @property
    def J(self) -> int:
        return self.weights.size


class DegeneracyError(RuntimeError):
    """All particle weights vanished; the filter lost the target.

    ``cause`` says why; ``time_s`` is the epoch's time where the caller
    knows it (``run_tracker`` does).  ``estimates`` holds the
    (time_s, estimate, ess) records made before the failing epoch; it is
    empty when ``update`` raises directly.
    """

    def __init__(self, cause: str, time_s: float | None = None, estimates=()):
        self.cause = cause
        self.time_s = time_s
        self.estimates = list(estimates)
        at = "" if time_s is None else f" at epoch t = {time_s:g} s"
        super().__init__(f"all particle weights vanished{at}: {cause}")


def init_particles(prior: PriorParams, J: int, rng: np.random.Generator) -> ParticleSet:
    """Draw J particles from the initial prior with uniform weights."""
    if J < 1:
        raise ValueError("need at least one particle")
    r0, r1, d0, d1 = prior.roi
    states = np.column_stack(
        [
            rng.uniform(r0, r1, J),
            rng.uniform(d0, d1, J),
            rng.normal(0.0, prior.speed_std, J),
        ]
    )
    return ParticleSet(states=states, weights=np.full(J, 1.0 / J))


def predict(states: np.ndarray, T: float, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """One motion step of (..., 3) states given the driving-noise realization.

    The last axis is [range_m, depth_m, speed_mps]; ``u1`` and ``u2``
    broadcast against the leading axes.
    """
    if not 0.0 < T < np.inf:
        raise ValueError("time step must be positive and finite")
    s = np.asarray(states, dtype=float)
    out = np.empty(np.broadcast(s[..., 0], u1, u2).shape + (3,))
    r, d, v = out[..., 0], out[..., 1], out[..., 2]
    # r = s0 + T s2 + T^2/2 u1, d = s1 + T u2, v = s2 + T u1, each in that order
    np.multiply(T, s[..., 2], out=r)
    np.add(s[..., 0], r, out=r)
    r += 0.5 * T * T * u1
    np.multiply(T, u2, out=d)
    np.add(s[..., 1], d, out=d)
    np.multiply(T, u1, out=v)
    np.add(s[..., 2], v, out=v)
    return out


def predict_particles(
    ps: ParticleSet, T: float, motion: MotionParams, rng: np.random.Generator
) -> ParticleSet:
    """Propagate all particles one step, sampling the driving noise."""
    u1 = rng.normal(0.0, np.sqrt(motion.accel_var), ps.J)
    u2 = rng.normal(0.0, np.sqrt(motion.depth_var), ps.J)
    return ParticleSet(states=predict(ps.states, T, u1, u2), weights=ps.weights)


def update(
    ps: ParticleSet, z: ObservationSet, grid: DoaGrid, params: ModelParams
) -> ParticleSet:
    """Reweight particles by the association marginal of this epoch.

    Particles outside the grid's region of interest get zero weight.
    Raises ``DegeneracyError``, naming the cause, if no particle retains
    positive weight.
    """
    r0, r1, d0, d1 = grid.roi
    s = ps.states
    inside = (s[:, 0] >= r0) & (s[:, 0] <= r1) & (s[:, 1] >= d0) & (s[:, 1] <= d1)

    def likelihood(points):
        angles = interpolate_doa_many(grid, points)
        detect = params.detect_prob * (angles == angles)  # 0 where impossible (nan)
        return marginal_likelihood_batch(z.z, angles, detect, params)

    # usually every particle is inside: then nothing is gathered or scattered
    if inside.all():
        like = likelihood(s[:, :2])
    else:
        like = np.zeros(ps.J)
        if inside.any():
            like[inside] = likelihood(s[inside, :2])

    with np.errstate(divide="ignore"):
        logw = np.log(ps.weights) + np.log(like)
    peak = logw.max()
    if not math.isfinite(peak):
        if not np.any(inside):
            raise DegeneracyError("every particle left the region of interest")
        if not np.any(like):
            raise DegeneracyError("every likelihood inside the region of interest is zero")
        raise DegeneracyError("every particle with a nonzero likelihood has zero weight")
    w = np.exp(logw - peak)
    return ParticleSet(states=s, weights=w / w.sum())


def effective_sample_size(ps: ParticleSet) -> float:
    return float(1.0 / np.sum(ps.weights**2))


def resample(ps: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Systematic resampling: offspring counts differ from J*w by < 1."""
    J = ps.J
    positions = (rng.random() + np.arange(J)) / J
    idx = np.searchsorted(np.cumsum(ps.weights), positions)
    idx = np.minimum(idx, J - 1)
    return ParticleSet(states=ps.states[idx], weights=np.full(J, 1.0 / J))


def mmse_estimate(ps: ParticleSet) -> SourceState:
    """Weighted particle mean, the posterior-mean state estimate."""
    m = ps.weights @ ps.states
    return SourceState(range_m=float(m[0]), depth_m=float(m[1]), speed_mps=float(m[2]))


def run_tracker(
    grid: DoaGrid,
    observations,
    params: ModelParams,
    motion: MotionParams,
    prior: PriorParams,
    J: int = 10_000,
    seed: int = 0,
) -> list[tuple[float, SourceState, float]]:
    """Track through a time-ordered sequence of (time_s, ObservationSet).

    The prediction step uses the actual gap between consecutive epochs, so
    data dropouts simply stretch the motion model; the first epoch uses
    the nominal step.  Systematic resampling runs whenever the effective
    sample size falls below J/2, with no roughening: the driving noise
    keeps the particles diverse.  Deterministic for a fixed seed.  Returns
    one (time_s, estimate, effective sample size) per epoch; a
    ``DegeneracyError`` carries the records made before its epoch.
    """
    rng = np.random.default_rng(seed)
    ps = init_particles(prior, J, rng)
    out: list[tuple[float, SourceState, float]] = []
    t_prev: float | None = None
    for time_s, z in observations:
        T = motion.step_s if t_prev is None else time_s - t_prev
        if not 0.0 < T < np.inf:  # nan fails it too
            raise ValueError("observation epochs must be finite and strictly increasing in time")
        ps = predict_particles(ps, T, motion, rng)
        try:
            ps = update(ps, z, grid, params)
        except DegeneracyError as e:
            raise DegeneracyError(e.cause, float(time_s), out) from None
        ess = effective_sample_size(ps)
        out.append((float(time_s), mmse_estimate(ps), ess))
        if ess < ps.J / 2:
            ps = resample(ps, rng)
        t_prev = time_s
    return out
