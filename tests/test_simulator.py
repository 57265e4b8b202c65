import numpy as np
import pytest

from swfocal.assoc import ModelParams
from swfocal.grid import interpolate_doa_many
from swfocal.simulator import GroundTruthTrack, ScenarioConfig, generate_observations, generate_truth
from swfocal.tracking import MotionParams

from oracles import observation_loop, stochastic_truth_states

ROI = (300.0, 1200.0, 30.0, 150.0)


def scenario(**kw):
    base = dict(
        initial_range_m=1100.0,
        initial_depth_m=60.0,
        initial_speed_mps=-2.5,
        duration_s=120.0,
        roi=ROI,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestTruth:
    def test_linear_motion(self):
        cfg = scenario(initial_range_m=1100.0, duration_s=300.0)
        truth = generate_truth(cfg)
        i = np.flatnonzero(np.isclose(truth.times_s, 81.92))[0]
        assert truth.states[i, 0] == pytest.approx(1100.0 - 2.5 * 81.92)

    def test_depth_constant_in_deterministic_mode(self):
        truth = generate_truth(scenario())
        assert np.all(truth.states[:, 1] == 60.0)

    def test_truncation_on_region_exit(self):
        # the cut is reported only by the track's length, a prefix of the epochs
        cfg = scenario(initial_range_m=400.0, duration_s=400.0)  # exits at 40 s
        truth = generate_truth(cfg)
        assert truth.states[:, 0].min() >= ROI[0]
        assert truth.times_s[-1] < 42.0
        assert truth.times_s.tolist() == cfg.epoch_times()[: truth.times_s.size].tolist()
        assert truth.times_s.size < cfg.epoch_times().size

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "motion",
        [
            MotionParams(),
            MotionParams(accel_var=0.0, depth_var=0.0),
            MotionParams(accel_var=0.0, depth_var=0.3, step_s=1.0),
            MotionParams(accel_var=0.01, depth_var=0.0, step_s=4.096),
        ],
        ids=["default", "zero-variances", "depth-noise-only", "range-noise-only"],
    )
    def test_stochastic_truth_is_the_row_by_row_step_byte_for_byte(self, seed, motion):
        cfg = scenario(truth_motion="stochastic", initial_range_m=750.0, duration_s=60.0, motion=motion)
        truth = generate_truth(cfg, seed=seed)
        want = stochastic_truth_states(cfg, seed)
        assert truth.times_s.size >= 10
        assert truth.states.tobytes() == want[: truth.times_s.size].tobytes()

    def test_stochastic_increment_moments(self):
        # one-step increments: var(range) = (T^2/2)^2 a, var(depth) = T^2 b,
        # var(speed) = T^2 a, all about the deterministic drift
        cfg = scenario(
            truth_motion="stochastic",
            initial_speed_mps=0.0,
            initial_range_m=700.0,
            duration_s=4.2,
            motion=MotionParams(accel_var=0.05, depth_var=0.1),
        )
        T = cfg.motion.step_s
        d_range, d_depth, d_speed = [], [], []
        for seed in range(10_000):
            t = generate_truth(cfg, seed=seed)
            d_range.append(t.states[1, 0] - t.states[0, 0] - T * t.states[0, 2])
            d_depth.append(t.states[1, 1] - t.states[0, 1])
            d_speed.append(t.states[1, 2] - t.states[0, 2])
        assert np.var(d_range) == pytest.approx((T * T / 2) ** 2 * 0.05, rel=0.05)
        assert np.var(d_depth) == pytest.approx(T * T * 0.1, rel=0.05)
        assert np.var(d_speed) == pytest.approx(T * T * 0.05, rel=0.05)

    def test_epoch_count_and_dropout_bookkeeping(self):
        cfg = scenario(duration_s=120.0, dropouts=((10.0, 30.0),))
        times = cfg.epoch_times()
        assert times.size == int(np.ceil(120.0 / 2.048))
        flagged = [t for t in times if cfg.in_dropout(float(t))]
        assert all(10.0 <= t < 30.0 for t in flagged)

    def test_initial_position_must_be_inside(self):
        with pytest.raises(ValueError):
            scenario(initial_range_m=50.0)

    def test_a_reversed_roi_is_refused_before_the_initial_point(self):
        roi = (3600.0, 100.0, 10.0, 175.0)
        with pytest.raises(ValueError, match=r"^roi: the range span must be positive and finite, got \[3600.0, "):
            scenario(initial_range_m=2450.0, roi=roi)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("initial_speed_mps", float("nan")),
        ],
    )
    def test_non_finite_values_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            scenario(**{field: value})

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan], [0.0, np.inf]])
    def test_non_finite_truth_times_rejected(self, times):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            GroundTruthTrack(times_s=np.array(times), states=np.zeros((len(times), 3)))


class TestObservations:
    def test_noiseless_limit_reproduces_modeled_angles(self, refr_grid):
        cfg = scenario(duration_s=20.0)
        truth = generate_truth(cfg)
        params = ModelParams(
            n_paths=4, sigma_deg=(1e-9,) * 4, detect_prob=1.0, mu_fa=0.0
        )
        obs = generate_observations(truth, refr_grid, params, seed=0)
        angles = interpolate_doa_many(refr_grid, truth.states[:, :2])
        for i, o in enumerate(obs):
            want = np.sort(angles[i][~np.isnan(angles[i])])[::-1]
            assert o.M == want.size
            assert np.allclose(o.z, want, atol=1e-6)

    def test_false_alarm_count_is_poisson(self, refr_grid):
        times = np.arange(100_000) * 2.048
        states = np.tile([700.0, 70.0, 0.0], (times.size, 1))
        truth = GroundTruthTrack(times_s=times, states=states)
        params = ModelParams(n_paths=4, sigma_deg=(0.5, 0.5, 2, 2), detect_prob=0.0, mu_fa=2.0)
        obs = generate_observations(truth, refr_grid, params, seed=1)
        counts = np.array([o.M for o in obs])
        assert 1.99 < counts.mean() < 2.01

    def test_impossible_paths_never_fire(self, coastal_wg):
        # at long range the direct path is impossible on this grid slice
        from swfocal.grid import build_doa_grid
        from swfocal.environment import PathKind

        grid = build_doa_grid(coastal_wg, (2200.0, 2400.0, 50.0, 80.0), 21, 7)
        assert grid.coverage()[PathKind.DP] == 1.0
        dp_layer = grid.kinds.index(PathKind.DP)
        times = np.arange(2000) * 2.048
        states = np.tile([2300.0, 65.0, 0.0], (times.size, 1))
        truth = GroundTruthTrack(times_s=times, states=states)
        params = ModelParams(n_paths=4, sigma_deg=(1e-9,) * 4, detect_prob=1.0, mu_fa=0.0)
        obs = generate_observations(truth, grid, params, seed=3)
        angles = interpolate_doa_many(grid, states[:, :2])
        possible = (~np.isnan(angles[0])).sum()
        assert all(o.M == possible for o in obs)

    def test_every_set_sorted_descending_and_in_domain(self, refr_grid):
        cfg = scenario(duration_s=60.0)
        truth = generate_truth(cfg)
        params = ModelParams(n_paths=4, sigma_deg=(0.5, 0.5, 2, 2), detect_prob=0.9, mu_fa=2.0)
        obs = generate_observations(truth, refr_grid, params, seed=5)
        for o in obs:
            assert np.all(np.diff(o.z) <= 0.0)
            assert np.all((o.z >= -90.0) & (o.z < 90.0))

    def test_seeded_determinism(self, refr_grid):
        cfg = scenario(duration_s=40.0)
        truth = generate_truth(cfg)
        params = ModelParams(n_paths=4, sigma_deg=(0.5, 0.5, 2, 2), detect_prob=0.9, mu_fa=2.0)
        a = generate_observations(truth, refr_grid, params, seed=9)
        b = generate_observations(truth, refr_grid, params, seed=9)
        assert all(np.array_equal(x.z, y.z) for x, y in zip(a, b))

    @pytest.mark.parametrize("grid_paths, model_paths", [(4, 2), (2, 4)])
    def test_path_count_must_match_the_model(self, refr_grid, grid_paths, model_paths):
        grid = refr_grid.select_kinds(refr_grid.kinds[:grid_paths])
        truth = generate_truth(scenario(duration_s=20.0))
        params = ModelParams(n_paths=model_paths, sigma_deg=(0.5,) * model_paths)
        with pytest.raises(ValueError, match=f"grid has {grid_paths} paths, the model {model_paths}"):
            generate_observations(truth, grid, params, seed=0)


# truths on the refractive grid: an approach over possible paths only, one
# at 140 m where the direct path is impossible over part of the track, and
# one that leaves the region of interest after 40 s
TRUTHS = {
    "approach": dict(duration_s=300.0),
    "impossible paths": dict(initial_depth_m=140.0, duration_s=300.0),
    "cut at the roi": dict(initial_range_m=400.0, duration_s=400.0),
}


class TestObservationsAgainstTheEpochLoop:
    """``generate_observations`` against ``oracles.observation_loop``, which
    draws and assembles each epoch in turn, byte for byte per epoch."""

    @pytest.mark.parametrize("truth", TRUTHS)
    @pytest.mark.parametrize("d", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("mu_fa", [0.0, 2.0])
    @pytest.mark.parametrize("K", [2, 4])
    def test_every_epoch_byte_for_byte(self, refr_grid, truth, d, mu_fa, K):
        grid = refr_grid.select_kinds(refr_grid.kinds[:K])
        track = generate_truth(scenario(**TRUTHS[truth]))
        impossible = np.isnan(interpolate_doa_many(grid, track.states[:, :2]))
        assert impossible.any() == (truth == "impossible paths")
        assert (track.times_s.size < scenario(**TRUTHS[truth]).epoch_times().size) == (truth == "cut at the roi")
        params = ModelParams(n_paths=K, sigma_deg=(0.5, 0.5, 2.0, 2.0)[:K], detect_prob=d, mu_fa=mu_fa)
        for seed in range(3):
            got = [o.z.tobytes() for o in generate_observations(track, grid, params, seed=seed)]
            assert got == [z.tobytes() for z in observation_loop(track, grid, params, seed)]

    def test_huge_noise_is_clipped_alike(self, refr_grid):
        # noise beyond the float range saturates to +-inf and clips to the domain's ends
        track = generate_truth(scenario(duration_s=60.0))
        params = ModelParams(n_paths=4, sigma_deg=(1e308,) * 4, detect_prob=0.9, mu_fa=2.0)
        got = generate_observations(track, refr_grid, params, seed=7)
        want = observation_loop(track, refr_grid, params, 7)
        assert [o.z.tobytes() for o in got] == [z.tobytes() for z in want]
        assert any(np.nextafter(90.0, -90.0) in o.z for o in got)

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_truth_of_no_or_one_epoch(self, refr_grid, n):
        track = GroundTruthTrack(times_s=np.arange(n) * 2.048, states=np.tile([700.0, 70.0, 0.0], (n, 1)))
        params = ModelParams(n_paths=4, sigma_deg=(0.5, 0.5, 2.0, 2.0))
        got = generate_observations(track, refr_grid, params, seed=0)
        assert [o.z.tobytes() for o in got] == [z.tobytes() for z in observation_loop(track, refr_grid, params, 0)]
