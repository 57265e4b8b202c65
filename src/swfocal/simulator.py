"""Synthetic scenarios: ground-truth tracks and model-consistent DOA data.

The simulator stands in for a beamforming front-end: it moves a source
through the waveguide, looks up the modeled path angles at its true
position, and emits per-epoch observation sets drawn from the detection,
noise and clutter model the tracker assumes.  A stochastic truth is one
particle moved by the tracker's only motion step, ``predict_particles``.
Epochs tick every ``motion.step_s`` seconds starting at zero; dropout
windows delete whole epochs from the observation stream (the truth keeps
all of them), which is how variable time steps reach the tracker.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from swfocal.assoc import ModelParams, ObservationSet
from swfocal.grid import DoaGrid, check_roi, inside_roi, interpolate_doa_many
from swfocal.tracking import MotionParams, ParticleSet, predict_particles

__all__ = ["ScenarioConfig", "GroundTruthTrack", "generate_truth", "generate_observations"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioConfig:
    """A synthetic run: initial state, timing, region of interest, dropouts and motion mode."""

    initial_range_m: float
    initial_depth_m: float
    initial_speed_mps: float
    duration_s: float
    roi: tuple[float, float, float, float]  # range_min, range_max, depth_min, depth_max
    dropouts: tuple[tuple[float, float], ...] = ()
    truth_motion: str = "deterministic"  # or "stochastic"
    motion: MotionParams = field(default_factory=MotionParams)

    def __post_init__(self):
        # each check is written so that nan fails it
        if not 0.0 <= self.duration_s < np.inf:
            raise ValueError(f"duration_s: duration must be finite and nonnegative, got {self.duration_s}")
        if not np.isfinite(self.initial_speed_mps):
            raise ValueError(f"initial_speed_mps: initial speed must be finite, got {self.initial_speed_mps}")
        if self.truth_motion not in ("deterministic", "stochastic"):
            raise ValueError(f"truth_motion: must be 'deterministic' or 'stochastic', got {self.truth_motion!r}")
        for i, (a, b) in enumerate(self.dropouts):
            if not (0.0 <= a and b <= self.duration_s):
                raise ValueError(f"dropouts[{i}]: dropout windows must lie within the run duration, got {[a, b]}")
            if not a < b:
                raise ValueError(f"dropouts[{i}]: a dropout window must end after it starts, got {[a, b]}")
        check_roi(self.roi)
        (r0, r1, d0, d1), r, d = self.roi, self.initial_range_m, self.initial_depth_m
        if not r0 <= r <= r1:
            raise ValueError(f"initial_range_m: must lie in the region of interest, [{r0}, {r1}], got {r}")
        if not d0 <= d <= d1:
            raise ValueError(f"initial_depth_m: must lie in the region of interest, [{d0}, {d1}], got {d}")

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
    depth.  Stochastic mode moves one particle by ``predict_particles``.
    If the track leaves the region of interest it is truncated at the
    last inside epoch, with a warning.
    """
    times = cfg.epoch_times()
    states = np.zeros((times.size, 3))
    if cfg.truth_motion == "deterministic":
        # a range beyond the float range is +-inf, outside the region of interest
        with np.errstate(over="ignore"):
            states[:, 0] = cfg.initial_range_m + cfg.initial_speed_mps * times
        states[:, 1] = cfg.initial_depth_m
        states[:, 2] = cfg.initial_speed_mps
    else:
        rng = np.random.default_rng(seed)
        ps = ParticleSet(states=[(cfg.initial_range_m, cfg.initial_depth_m, cfg.initial_speed_mps)], weights=[1.0])
        states[:1] = ps.states
        for i in range(1, times.size):
            ps = predict_particles(ps, float(times[i] - times[i - 1]), cfg.motion, rng)
            states[i] = ps.states[0]

    inside = inside_roi(cfg.roi, states[:, 0], states[:, 1])
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
    noise; a Poisson number of false alarms lands uniformly on
    [-90, 90); everything is clipped to [-90, 90) and sorted descending.
    The grid's layers must be the model's ``params.n_paths`` paths.
    """
    if len(grid.kinds) != params.n_paths:
        raise ValueError(f"the grid has {len(grid.kinds)} paths, the model {params.n_paths}")
    rng = np.random.default_rng(seed)
    angles = interpolate_doa_many(grid, truth.states[:, :2])
    upper = np.nextafter(90.0, -90.0)
    sigma = np.asarray(params.sigma_deg)
    out: list[ObservationSet] = []
    # noise beyond the float range is +-inf, clipped into [-90, 90) below
    with np.errstate(over="ignore"):
        for i in range(truth.times_s.size):
            ang = angles[i]
            possible = ~np.isnan(ang)
            detected = possible & (rng.random(ang.size) < params.detect_prob)
            doas = ang[detected] + rng.normal(0.0, 1.0, int(detected.sum())) * sigma[detected]
            n_fa = rng.poisson(params.mu_fa)
            fa = rng.uniform(-90.0, 90.0, n_fa)
            z = np.clip(np.concatenate([doas, fa]), -90.0, upper)
            z = np.sort(z, kind="stable")[::-1]
            out.append(ObservationSet(z=z))
    return out
