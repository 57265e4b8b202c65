import dataclasses
from pathlib import Path

import numpy as np
import pytest

from swfocal.assoc import ModelParams, ObservationSet, PathPrediction, marginal_likelihood
from swfocal.cli import load_config
from swfocal.grid import build_doa_grid, interpolate_doa_many
from swfocal.simulator import generate_observations, generate_truth
from swfocal.tracking import (
    DegeneracyError,
    MotionParams,
    ParticleSet,
    PriorParams,
    effective_sample_size,
    init_particles,
    mmse_estimate,
    predict_particles,
    resample,
    run_tracker,
    update,
)

REPO = Path(__file__).resolve().parent.parent
ROI = (300.0, 1200.0, 30.0, 150.0)
PARAMS4 = ModelParams(n_paths=4, sigma_deg=(0.5, 0.5, 2.0, 2.0), detect_prob=0.9, mu_fa=2.0)


def step(states, T, accel_var=0.0, depth_var=0.0, rng=None):
    """The states ``predict_particles`` moves one step of length ``T``."""
    ps = ParticleSet(states=states, weights=np.full(len(states), 1.0 / len(states)))
    motion = MotionParams(accel_var=accel_var, depth_var=depth_var)
    return predict_particles(ps, T, motion, rng or np.random.default_rng(0)).states


class OnesGenerator:
    """A generator stub whose standard normals are all 1."""

    def standard_normal(self, n):
        return np.ones(n)


def stacked(s, T, u1, u2):
    """The motion step as three stacked components."""
    return np.column_stack([s[:, 0] + T * s[:, 2] + 0.5 * T * T * u1, s[:, 1] + T * u2, s[:, 2] + T * u1])


class TestPredict:
    def test_deterministic_part(self):
        s = step([[1000.0, 60.0, -2.5]], 2.048)[0]
        assert s[0] == pytest.approx(1000.0 - 2.5 * 2.048)
        assert s[1] == 60.0
        assert s[2] == -2.5

    def test_noise_columns(self):
        assert step(np.zeros((1, 3)), 1.0, accel_var=1.0, rng=OnesGenerator()).tolist() == [[0.5, 0.0, 1.0]]
        assert step(np.zeros((1, 3)), 1.0, depth_var=1.0, rng=OnesGenerator()).tolist() == [[0.0, 1.0, 0.0]]

    def test_dropout_stretches_step(self):
        T = 2.048 + 74.0
        s = step([[1000.0, 60.0, -2.5]], T)[0]
        assert s[0] == pytest.approx(1000.0 - 2.5 * T)

    @pytest.mark.parametrize("T", [0.0, -2.048, float("nan"), float("inf")])
    def test_nonpositive_step_rejected(self, T):
        with pytest.raises(ValueError, match="time step must be positive"):
            step(np.zeros((1, 3)), T)

    def test_matches_stacked_components(self):
        ps = init_particles(PriorParams(roi=ROI), 500, np.random.default_rng(0))
        motion = MotionParams(accel_var=0.09, depth_var=0.16)
        out = predict_particles(ps, 76.048, motion, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        u1 = rng.normal(0.0, np.sqrt(0.09), 500)
        u2 = rng.normal(0.0, np.sqrt(0.16), 500)
        assert out.states.shape == (500, 3)
        assert out.states.tobytes() == stacked(ps.states, 76.048, u1, u2).tobytes()
        assert np.array_equal(out.weights, ps.weights)

    def test_noise_draws_leave_the_generator_as_rng_normal_does(self):
        ps = init_particles(PriorParams(roi=ROI), 1000, np.random.default_rng(0))
        drawn, plain = np.random.default_rng(3), np.random.default_rng(3)
        predict_particles(ps, 2.048, MotionParams(), drawn)
        plain.normal(0.0, np.sqrt(0.05), 1000)
        plain.normal(0.0, np.sqrt(0.1), 1000)
        assert drawn.bit_generator.state == plain.bit_generator.state


class TestParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("accel_var", float("nan")),
            ("accel_var", float("inf")),
            ("depth_var", float("nan")),
            ("step_s", float("nan")),
            ("step_s", float("inf")),
        ],
    )
    def test_non_finite_motion_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            MotionParams(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed_std", float("nan")),
            ("speed_std", float("inf")),
            ("roi", (300.0, float("inf"), 30.0, 150.0)),
            ("roi", (300.0, 1200.0, float("nan"), 150.0)),
            ("roi", (-1e308, 1e308, 0.0, 10.0)),  # finite bounds, but uniform draws over them overflow
        ],
    )
    def test_non_finite_prior_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: "):
            PriorParams(**{"roi": ROI, field: value})


class TestInit:
    def test_single_particle_has_unit_weight(self):
        ps = init_particles(PriorParams(roi=ROI), 1, np.random.default_rng(0))
        assert ps.J == 1
        assert ps.weights[0] == 1.0

    def test_positions_cover_the_prior_region(self):
        ps = init_particles(PriorParams(roi=ROI), 100_000, np.random.default_rng(1))
        r0, r1, d0, d1 = ROI
        # uniform means within three standard errors of the region centers
        se_r = (r1 - r0) / np.sqrt(12 * ps.J)
        se_d = (d1 - d0) / np.sqrt(12 * ps.J)
        assert abs(ps.states[:, 0].mean() - (r0 + r1) / 2) < 3 * se_r
        assert abs(ps.states[:, 1].mean() - (d0 + d1) / 2) < 3 * se_d
        assert abs(ps.states[:, 2].mean()) < 3 * 5.0 / np.sqrt(ps.J)


class TestResampling:
    def test_uniform_weights_have_full_ess(self):
        ps = ParticleSet(states=np.zeros((10, 3)), weights=np.full(10, 0.1))
        assert effective_sample_size(ps) == pytest.approx(10.0)

    def test_degenerate_weights_have_unit_ess(self):
        w = np.zeros(10)
        w[3] = 1.0
        ps = ParticleSet(states=np.arange(30.0).reshape(10, 3), weights=w)
        assert effective_sample_size(ps) == pytest.approx(1.0)
        out = resample(ps, np.random.default_rng(0))
        assert np.all(out.states == ps.states[3])
        assert np.allclose(out.weights, 0.1)

    def test_systematic_offspring_counts(self):
        rng = np.random.default_rng(5)
        w = rng.random(64)
        w /= w.sum()
        ps = ParticleSet(states=np.arange(64 * 3.0).reshape(64, 3), weights=w)
        out = resample(ps, np.random.default_rng(9))
        counts = np.array(
            [np.sum(np.all(out.states == ps.states[j], axis=1)) for j in range(64)]
        )
        assert np.all(np.abs(counts - 64 * w) < 1.0)

    def test_gather_is_the_fancy_index_bit_for_bit(self):
        # the systematic indices of seeded weights, gathered by hand
        rng = np.random.default_rng(11)
        w = rng.random(1000) ** 4
        w /= w.sum()
        ps = ParticleSet(states=rng.normal(0.0, 1e3, (1000, 3)), weights=w)
        out = resample(ps, np.random.default_rng(4))
        u = np.random.default_rng(4).random()
        idx = np.minimum(np.searchsorted(np.cumsum(w), (u + np.arange(1000)) / 1000), 999)
        assert np.unique(idx).size < 1000
        assert out.states.tobytes() == ps.states[idx].tobytes()
        assert out.states.flags.c_contiguous


class TestMmse:
    def test_single_particle(self):
        ps = ParticleSet(states=np.array([[5.0, 6.0, 7.0]]), weights=np.array([1.0]))
        est = mmse_estimate(ps)
        assert (est.range_m, est.depth_m, est.speed_mps) == (5.0, 6.0, 7.0)

    def test_equal_weight_mean(self):
        ps = ParticleSet(
            states=np.array([[100.0, 0, 0], [300.0, 0, 0]]), weights=np.array([0.5, 0.5])
        )
        assert mmse_estimate(ps).range_m == pytest.approx(200.0)

    def test_weighted_definition(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(40, 3))
        w = rng.random(40)
        w /= w.sum()
        ps = ParticleSet(states=states, weights=w)
        est = mmse_estimate(ps)
        assert np.allclose([est.range_m, est.depth_m, est.speed_mps], w @ states, rtol=1e-14)


class TestUpdate:
    def test_no_observations_keep_equal_weights_equal(self, refr_grid):
        ps = init_particles(PriorParams(roi=ROI), 200, np.random.default_rng(3))
        out = update(ps, ObservationSet(z=np.array([])), refr_grid, PARAMS4)
        # the missed-detection product depends only on which paths are
        # possible; particles with the same possibility set keep equal weight
        angles = interpolate_doa_many(refr_grid, out.states[:, :2])
        n_possible = np.sum(~np.isnan(angles), axis=1)
        for n in np.unique(n_possible):
            w = out.weights[n_possible == n]
            assert np.allclose(w, w[0], rtol=1e-12)

    def test_single_particle_renormalizes_to_one(self, refr_grid):
        ps = init_particles(PriorParams(roi=ROI), 1, np.random.default_rng(4))
        out = update(ps, ObservationSet(z=np.array([10.0, -5.0])), refr_grid, PARAMS4)
        assert out.weights[0] == pytest.approx(1.0)

    def test_weight_ratio_matches_direct_marginals(self, refr_grid):
        z = ObservationSet(z=np.array([12.0, 6.5, -10.0]))
        states = np.array([[700.0, 70.0, -2.0], [1150.0, 140.0, -2.0]])
        ps = ParticleSet(states=states, weights=np.array([0.5, 0.5]))
        out = update(ps, z, refr_grid, PARAMS4)
        likes = []
        for s in states:
            ang = interpolate_doa_many(refr_grid, s[None, :2])[0]
            det = np.where(np.isnan(ang), 0.0, PARAMS4.detect_prob)
            likes.append(marginal_likelihood(z, PathPrediction(ang, det), PARAMS4))
        assert out.weights[0] / out.weights[1] == pytest.approx(likes[0] / likes[1], rel=1e-12)

    def test_out_of_region_particles_get_zero_weight(self, refr_grid):
        states = np.array([[700.0, 70.0, 0.0], [5000.0, 70.0, 0.0]])
        ps = ParticleSet(states=states, weights=np.array([0.5, 0.5]))
        out = update(ps, ObservationSet(z=np.array([5.0])), refr_grid, PARAMS4)
        assert out.weights[1] == 0.0
        assert out.weights[0] == pytest.approx(1.0)

    def test_all_particles_outside_raises_degeneracy(self, refr_grid):
        states = np.array([[5000.0, 70.0, 0.0], [6000.0, 70.0, 0.0]])
        ps = ParticleSet(states=states, weights=np.array([0.5, 0.5]))
        with pytest.raises(DegeneracyError, match="left the region of interest") as err:
            update(ps, ObservationSet(z=np.array([5.0])), refr_grid, PARAMS4)
        assert err.value.time_s is None
        assert err.value.estimates == []

    def test_zero_likelihood_everywhere_raises_degeneracy(self, refr_grid):
        # without clutter, five observations cannot come from four paths
        p = ModelParams(n_paths=4, sigma_deg=(0.5,) * 4, detect_prob=0.9, mu_fa=0.0)
        ps = init_particles(PriorParams(roi=ROI), 50, np.random.default_rng(3))
        z = ObservationSet(z=np.array([20.0, 10.0, 0.0, -10.0, -20.0]))
        with pytest.raises(DegeneracyError, match="every likelihood inside the region of interest is zero"):
            update(ps, z, refr_grid, p)

    def test_zero_weight_inside_raises_degeneracy(self, refr_grid):
        states = np.array([[700.0, 70.0, 0.0], [5000.0, 70.0, 0.0]])
        ps = ParticleSet(states=states, weights=np.array([0.0, 1.0]))
        with pytest.raises(DegeneracyError, match="nonzero likelihood has zero weight"):
            update(ps, ObservationSet(z=np.array([5.0])), refr_grid, PARAMS4)

    def test_weights_normalized_after_update(self, refr_grid):
        ps = init_particles(PriorParams(roi=ROI), 500, np.random.default_rng(6))
        out = update(ps, ObservationSet(z=np.array([11.0, 4.0, -30.0])), refr_grid, PARAMS4)
        assert abs(out.weights.sum() - 1.0) < 1e-12


class TestRunTracker:
    def test_empty_observation_stream(self, refr_grid):
        out = run_tracker(refr_grid, [], PARAMS4, MotionParams(), PriorParams(roi=ROI), J=10)
        assert out == []

    def test_no_information_keeps_estimate_near_prior_center(self, iso_grid):
        # with every epoch empty and all paths possible everywhere, the
        # update carries no position information: the estimate stays near
        # the prior mean while the cloud diffuses
        roi = iso_grid.roi
        obs = [((i + 1) * 2.048, ObservationSet(z=np.array([]))) for i in range(30)]
        p = ModelParams(n_paths=4, sigma_deg=(0.5, 0.5, 2, 2), detect_prob=0.9, mu_fa=2.0)
        out = run_tracker(iso_grid, obs, p, MotionParams(), PriorParams(roi=roi), J=4000, seed=2)
        est = out[-1][1]
        assert abs(est.depth_m - 0.5 * (roi[2] + roi[3])) < 8.0
        assert abs(est.range_m - 0.5 * (roi[0] + roi[1])) < 80.0

    def test_near_noiseless_scenario_converges(self, refr_grid):
        # tiny observation noise, perfect detection, no clutter: the
        # posterior collapses onto the truth within a short run
        from swfocal.simulator import ScenarioConfig, generate_observations, generate_truth

        cfg = ScenarioConfig(
            initial_range_m=1150.0,
            initial_depth_m=60.0,
            initial_speed_mps=-2.5,
            duration_s=120.0,
            roi=ROI,
        )
        truth = generate_truth(cfg)
        p = ModelParams(n_paths=4, sigma_deg=(0.01,) * 4, detect_prob=1.0, mu_fa=0.0)
        obs_sets = generate_observations(truth, refr_grid, p, seed=4)
        obs = list(zip(truth.times_s.tolist(), obs_sets))
        out = run_tracker(refr_grid, obs, p, MotionParams(), PriorParams(roi=ROI), J=3000, seed=6)
        est = out[-1][1]
        assert abs(est.range_m - truth.states[-1, 0]) < 5.0
        assert abs(est.depth_m - truth.states[-1, 1]) < 2.0

    def test_more_paths_sharpen_the_posterior(self, refr_grid):
        # information monotonicity: with identical observation streams,
        # the 4-path model's one-step posterior range variance is on
        # average no larger than the 2-path model's
        from swfocal.environment import PathKind
        from swfocal.simulator import GroundTruthTrack, generate_observations

        grid2 = refr_grid.select_kinds((PathKind.SB, PathKind.DP))
        p2 = ModelParams(n_paths=2, sigma_deg=(0.5, 0.5), detect_prob=0.9, mu_fa=4.0)
        var4, var2 = [], []
        for seed in range(10):
            track = GroundTruthTrack(
                times_s=np.array([0.0]), states=np.array([[800.0, 70.0, -2.0]])
            )
            z = generate_observations(track, refr_grid, PARAMS4, seed=seed)[0]
            ps = init_particles(PriorParams(roi=ROI), 10_000, np.random.default_rng(seed))
            out4 = update(ps, z, refr_grid, PARAMS4)
            out2 = update(ps, z, grid2, p2)
            for out, acc in ((out4, var4), (out2, var2)):
                mean = out.weights @ out.states[:, 0]
                acc.append(out.weights @ (out.states[:, 0] - mean) ** 2)
        assert np.mean(var4) <= np.mean(var2)

    def test_deterministic_for_fixed_seed(self, refr_grid):
        rng = np.random.default_rng(8)
        obs = []
        t = 0.0
        for i in range(5):
            t += 2.048
            z = np.sort(rng.uniform(-30, 30, 3))[::-1]
            obs.append((t, ObservationSet(z=z)))
        a = run_tracker(refr_grid, obs, PARAMS4, MotionParams(), PriorParams(roi=ROI), J=300, seed=12)
        b = run_tracker(refr_grid, obs, PARAMS4, MotionParams(), PriorParams(roi=ROI), J=300, seed=12)
        assert [(t, e, s) for t, e, s in a] == [(t, e, s) for t, e, s in b]

    def test_degeneracy_names_the_epoch_time(self, refr_grid):
        # the third epoch has more observations than paths and no clutter
        p = ModelParams(n_paths=4, sigma_deg=(0.5,) * 4, detect_prob=0.9, mu_fa=0.0)
        z = [np.array([5.0]), np.array([5.0]), np.array([20.0, 10.0, 0.0, -10.0, -20.0])]
        obs = [(2.048 * (i + 1), ObservationSet(z=zi)) for i, zi in enumerate(z)]
        with pytest.raises(DegeneracyError, match=r"at epoch t = 6\.144 s: every likelihood") as err:
            run_tracker(refr_grid, obs, p, MotionParams(), PriorParams(roi=ROI), J=200, seed=1)
        assert err.value.time_s == 6.144
        assert err.value.cause == "every likelihood inside the region of interest is zero"
        # the records of the two epochs before, as a run over them alone gives
        good = run_tracker(refr_grid, obs[:2], p, MotionParams(), PriorParams(roi=ROI), J=200, seed=1)
        assert [t for t, _, _ in err.value.estimates] == [2.048, 4.096]
        assert err.value.estimates == good

    def test_rejects_nonincreasing_times(self, refr_grid):
        obs = [(2.0, ObservationSet(z=np.array([]))), (2.0, ObservationSet(z=np.array([])))]
        with pytest.raises(ValueError):
            run_tracker(refr_grid, obs, PARAMS4, MotionParams(), PriorParams(roi=ROI), J=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_times(self, refr_grid, bad):
        # not a lost track: the step to the bad epoch is no time step at all
        obs = [(2.0, ObservationSet(z=np.array([]))), (bad, ObservationSet(z=np.array([])))]
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            run_tracker(refr_grid, obs, PARAMS4, MotionParams(), PriorParams(roi=ROI), J=10)


@pytest.fixture(scope="module")
def default_run(coastal_wg):
    """The README run: its 876x56 grid and the stream ``simulate`` writes at seed 0."""
    cfg = load_config(REPO / "configs" / "default_run.json")
    grid = build_doa_grid(coastal_wg, (100.0, 3600.0, 10.0, 175.0), 876, 56)
    truth = generate_truth(cfg.scenario, seed=0)
    obs = generate_observations(truth, grid, cfg.model, seed=0)
    stream = [(t, o) for t, o in zip(truth.times_s.tolist(), obs) if not cfg.scenario.in_dropout(t)]
    return cfg, grid, stream


class TestLossOfTrack:
    """The default run, tracked under a mismatched model, loses the target
    at a measured epoch and keeps the records made before it."""

    @pytest.mark.parametrize(
        "change, time_s, cause, n_before",
        [
            # a missed detection has zero probability at d = 1
            ({"detect_prob": 1.0}, 256.0, "every likelihood inside the region of interest is zero", 125),
            # sigma / 10 drifts to the 100 m edge of the region
            ({"sigma_deg": (0.05, 0.05, 0.2, 0.2)}, 847.872, "every particle left the region of interest", 342),
        ],
        ids=["detect_prob=1", "sigma/10"],
    )
    def test_mismatched_model_loses_the_track(self, default_run, change, time_s, cause, n_before):
        cfg, grid, stream = default_run
        model = dataclasses.replace(cfg.model, **change)
        with pytest.raises(DegeneracyError) as err:
            run_tracker(grid, stream, model, cfg.motion, cfg.prior, J=cfg.n_particles, seed=cfg.seed)
        assert err.value.cause == cause
        assert err.value.time_s == stream[n_before][0] == pytest.approx(time_s)
        assert [t for t, _, _ in err.value.estimates] == [t for t, _ in stream[:n_before]]
