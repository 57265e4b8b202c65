"""Particle-based tracking of source range, depth and range speed.

The state evolves with a nearly constant-velocity model in range and a
nearly constant-location model in depth: over a step of length T,

    range' = range + T * speed + (T^2 / 2) * u1
    depth' = depth + T * u2
    speed' = speed + T * u1

with independent zero-mean Gaussian driving noise (u1, u2).
``predict_particles`` is the only motion step: the simulator's stochastic
truth is one particle moved by it.  Each epoch every particle is
reweighted by the exact association marginal of the observed DOAs at its
position (modeled angles interpolated from the precomputed grid,
detection probability zero where a path is impossible or the particle
left the region of interest), weights are renormalized, and systematic
resampling runs whenever the effective sample size drops below half the
particle count.  The state estimate is the weighted particle mean.

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
from swfocal.grid import DoaGrid, check_roi, inside_roi, interpolate_doa_many

__all__ = [
    "SourceState",
    "MotionParams",
    "PriorParams",
    "ParticleSet",
    "DegeneracyError",
    "init_particles",
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
            if not 0.0 <= (v := getattr(self, name)) < np.inf:
                raise ValueError(f"{name}: driving-noise variance must be finite and nonnegative, got {v}")
        if not 0.0 < self.step_s < np.inf:
            raise ValueError(f"step_s: nominal step must be positive and finite, got {self.step_s}")


@dataclass(frozen=True)
class PriorParams:
    """Uninformative initial prior: uniform position, Gaussian speed."""

    roi: tuple[float, float, float, float]  # range_min, range_max, depth_min, depth_max
    speed_std: float = 5.0

    def __post_init__(self):
        check_roi(self.roi)
        if not 0.0 < self.speed_std < np.inf:
            raise ValueError(
                f"speed_std: speed prior standard deviation must be positive and finite, got {self.speed_std}"
            )


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


def predict_particles(
    ps: ParticleSet, T: float, motion: MotionParams, rng: np.random.Generator
) -> ParticleSet:
    """Move every particle one step of length ``T``, drawing the driving noise as ``rng.normal`` would."""
    if not 0.0 < T < np.inf:
        raise ValueError("time step must be positive and finite")
    u1 = rng.standard_normal(ps.J) * np.sqrt(motion.accel_var)
    u2 = rng.standard_normal(ps.J) * np.sqrt(motion.depth_var)
    s = ps.states
    out = np.empty(s.shape)
    r, d, v = out[:, 0], out[:, 1], out[:, 2]
    # r = s0 + T s2 + T^2/2 u1, d = s1 + T u2, v = s2 + T u1, each in that order.
    # A state beyond the float range is +-inf, or nan where two infinities
    # meet, and lies outside every region of interest
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(T, s[:, 2], out=r)
        np.add(s[:, 0], r, out=r)
        r += 0.5 * T * T * u1
        np.multiply(T, u2, out=d)
        np.add(s[:, 1], d, out=d)
        np.multiply(T, u1, out=v)
        np.add(s[:, 2], v, out=v)
    return ParticleSet(states=out, weights=ps.weights)


def update(
    ps: ParticleSet, z: ObservationSet, grid: DoaGrid, params: ModelParams
) -> ParticleSet:
    """Reweight particles by the association marginal of this epoch.

    Particles outside the grid's region of interest get zero weight.
    Raises ``DegeneracyError``, naming the cause, if no particle retains
    positive weight.
    """
    s = ps.states
    inside = inside_roi(grid.roi, s[:, 0], s[:, 1])

    def likelihood(points):
        angles = interpolate_doa_many(grid, points)
        detect = params.detect_prob * (angles == angles)  # 0 where impossible (nan)
        return marginal_likelihood_batch(z.z, angles, detect, params)

    # every particle is inside in 320 of the default run's 514 epochs at J = 10^3
    # (302 at 10^4, seed 0), 2-4 % outside on average in the rest; without this
    # branch, which gathers and scatters nothing, update won 8 and 13 of 30 rounds
    if inside.all():
        like = likelihood(s[:, :2])
    else:
        like = np.zeros(ps.J)
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
    # the rows of ps.states[idx], gathered without fancy indexing's overhead
    return ParticleSet(states=ps.states.take(idx, axis=0), weights=np.full(J, 1.0 / J))


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
