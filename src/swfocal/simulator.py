"""Synthetic scenarios: ground-truth tracks and model-consistent DOA data.

The simulator stands in for a beamforming front-end: it moves a source
through the waveguide, looks up the modeled path angles at its true
position, and emits per-epoch observation sets drawn from the detection,
noise and clutter model the tracker assumes.  Epochs tick every
``motion.step_s`` seconds starting at zero; dropout windows delete whole
epochs from the observation stream (the truth keeps all of them), which is
how variable time steps reach the tracker.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from swfocal.assoc import ModelParams, ObservationSet
from swfocal.grid import DoaGrid, interpolate_doa_many
from swfocal.tracking import MotionParams, predict

__all__ = ["ScenarioConfig", "GroundTruthTrack", "generate_truth", "generate_observations"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioConfig:
    """A synthetic run: initial state, timing, dropouts and motion mode."""

    initial_range_m: float
    initial_depth_m: float
    initial_speed_mps: float
    duration_s: float
    dropouts: tuple[tuple[float, float], ...] = ()
    truth_motion: str = "deterministic"  # or "stochastic"
    roi: tuple[float, float, float, float] = (100.0, 2500.0, 10.0, 175.0)
    motion: MotionParams = field(default_factory=MotionParams)

    def __post_init__(self):
        # each check is written so that nan fails it
        if not 0.0 <= self.duration_s < np.inf:
            raise ValueError("duration_s: duration must be finite and nonnegative")
        if not np.isfinite(self.initial_speed_mps):
            raise ValueError("initial_speed_mps: initial speed must be finite")
        if self.truth_motion not in ("deterministic", "stochastic"):
            raise ValueError("truth motion must be 'deterministic' or 'stochastic'")
        for a, b in self.dropouts:
            if not 0.0 <= a < b <= self.duration_s:
                raise ValueError("dropout windows must lie within the run duration")
        r0, r1, d0, d1 = self.roi
        if not (r0 <= self.initial_range_m <= r1 and d0 <= self.initial_depth_m <= d1):
            raise ValueError("initial position must lie inside the region of interest")

    def epoch_times(self) -> np.ndarray:
        n = int(np.ceil(self.duration_s / self.motion.step_s))
        return np.arange(n) * self.motion.step_s

    def in_dropout(self, t: float) -> bool:
        return any(a <= t < b for a, b in self.dropouts)


@dataclass(frozen=True)
class GroundTruthTrack:
    """True source state at every epoch, dropouts included."""

    times_s: np.ndarray
    states: np.ndarray  # (n, 3): range_m, depth_m, speed_mps

    def __post_init__(self):
        # written so that nan fails it
        if not (np.all(np.diff(self.times_s) > 0.0) and np.all(np.abs(self.times_s) < np.inf)):
            raise ValueError("track times must be finite and strictly increasing")
        if self.states.shape != (self.times_s.size, 3):
            raise ValueError("track needs one (range, depth, speed) row per time")


def generate_truth(cfg: ScenarioConfig, seed: int = 0) -> GroundTruthTrack:
    """Move the source through the scenario.

    Deterministic mode is straight-line: constant range rate, constant
    depth.  Stochastic mode draws the motion model's driving noise each
    step.  If the track leaves the region of interest it is truncated at
    the last inside epoch, with a warning.
    """
    times = cfg.epoch_times()
    r0, r1, d0, d1 = cfg.roi
    states = np.zeros((times.size, 3))
    if cfg.truth_motion == "deterministic":
        states[:, 0] = cfg.initial_range_m + cfg.initial_speed_mps * times
        states[:, 1] = cfg.initial_depth_m
        states[:, 2] = cfg.initial_speed_mps
    else:
        rng = np.random.default_rng(seed)
        states[:1] = (cfg.initial_range_m, cfg.initial_depth_m, cfg.initial_speed_mps)
        for i in range(1, times.size):
            u1 = rng.normal(0.0, np.sqrt(cfg.motion.accel_var))
            u2 = rng.normal(0.0, np.sqrt(cfg.motion.depth_var))
            states[i] = predict(states[i - 1], float(times[i] - times[i - 1]), u1, u2)

    inside = (
        (states[:, 0] >= r0)
        & (states[:, 0] <= r1)
        & (states[:, 1] >= d0)
        & (states[:, 1] <= d1)
    )
    n_keep = int(np.argmin(inside)) if not inside.all() else times.size
    if n_keep < times.size:
        log.warning(
            "truth track leaves the region of interest at t=%.3f s; truncating %d of %d epochs",
            times[n_keep],
            times.size - n_keep,
            times.size,
        )
        times = times[:n_keep]
        states = states[:n_keep]
    return GroundTruthTrack(times_s=times, states=states)


def generate_observations(
    truth: GroundTruthTrack, grid: DoaGrid, params: ModelParams, seed: int = 0
) -> list[ObservationSet]:
    """Draw one observation set per truth epoch from the statistical model.

    Each geometrically possible path is detected with its detection
    probability and then observed at its modeled angle plus Gaussian
    noise; a Poisson number of false alarms lands uniformly in the
    false-alarm support; everything is clipped to [-90, 90) and sorted
    descending.
    """
    rng = np.random.default_rng(seed)
    angles = interpolate_doa_many(grid, truth.states[:, :2])
    lo, hi = params.fa_support_deg
    upper = np.nextafter(90.0, -90.0)
    out: list[ObservationSet] = []
    for i in range(truth.times_s.size):
        ang = angles[i]
        possible = ~np.isnan(ang)
        detected = possible & (rng.random(ang.size) < params.detect_prob)
        doas = ang[detected] + rng.normal(0.0, 1.0, int(detected.sum())) * np.asarray(
            params.sigma_deg
        )[detected]
        n_fa = rng.poisson(params.mu_fa)
        fa = rng.uniform(lo, hi, n_fa)
        z = np.clip(np.concatenate([doas, fa]), -90.0, upper)
        z = np.sort(z, kind="stable")[::-1]
        out.append(ObservationSet(z=z))
    return out
