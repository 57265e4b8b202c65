import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swfocal import io as sio
from swfocal.cli import ConfigError, load_config
from swfocal.grid import build_doa_grid
from swfocal.simulator import ScenarioConfig
from swfocal.tracking import MotionParams

REPO = Path(__file__).resolve().parent.parent
ENV_FILE = REPO / "configs" / "coastal_216m_env.json"


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "swfocal", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory, coastal_wg):
    """A small grid plus a config for a short run, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    grid_path = root / "grid.bin"
    grid = build_doa_grid(coastal_wg, (300.0, 1200.0, 30.0, 150.0), 46, 25)
    sio.write_grid(grid_path, grid)
    cfg = {
        "grid_file": str(grid_path),
        "output_dir": str(root / "out"),
        "K": 4,
        "J": 400,
        "seed": 0,
        "prior": {"roi": [300.0, 1200.0, 30.0, 150.0], "speed_std": 5.0},
        "scenario": {
            "initial_range_m": 1100.0,
            "initial_depth_m": 60.0,
            "initial_speed_mps": -2.5,
            "duration_s": 120.0,
            "dropouts": [[40.0, 60.0]],
        },
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    return root, cfg_path, cfg


class TestLoadConfig:
    def test_grid_file_alone_takes_the_defaults(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin"}))
        cfg = load_config(p)
        assert cfg.motion == MotionParams()
        assert cfg.model.detect_prob == 0.9
        assert cfg.prior.speed_std == 5.0
        assert cfg.n_particles == 10_000
        assert cfg.seed == 0
        assert cfg.output_dir == "out"

    def test_scenario_without_truth_motion_takes_the_dataclass_default(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "scenario": {"initial_range_m": 3000.0}}))
        scenario = load_config(p).scenario
        default = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
        assert scenario.truth_motion == default["truth_motion"]
        assert scenario.motion.step_s == MotionParams().step_s

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("model", "mu_fa", float("nan")),
            ("model", "sigma_deg", [0.5, 0.5, float("nan"), 2.0]),
            ("motion", "accel_var", float("nan")),
            ("motion", "step_s", float("inf")),
            ("prior", "speed_std", float("inf")),
            ("scenario", "duration_s", float("nan")),
        ],
    )
    def test_non_finite_parameter_is_a_config_error(self, tmp_path, block, key, value):
        # Python's json reads the NaN and Infinity literals that it writes
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", block: {key: value}}))
        with pytest.raises(ConfigError, match=key):
            load_config(p)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("J", 2.7),
            ("K", 4.9),
            ("J", True),
            ("J", 0),
            ("J", "400"),
            ("seed", -1),
            ("seed", float("nan")),
            ("J", 1e4),
            ("seed", 3.0),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, tmp_path, key, value):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", key: value}))
        if isinstance(value, float) and value.is_integer():
            cfg = load_config(p)
            assert (cfg.n_particles, cfg.seed) == ((10_000, 0) if key == "J" else (10_000, 3))
            assert type(cfg.n_particles) is type(cfg.seed) is int
        else:
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                load_config(p)

    def test_environment_file_is_an_unknown_key(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "environment_file": "env.json"}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(p)

    def test_scenario_step_is_an_unknown_key(self, tmp_path):
        # the epoch step is the motion step
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "scenario": {"step_s": 2.048}}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(p)


class TestBuildGrid:
    def test_builds_and_reports_coverage(self, tmp_path):
        out = tmp_path / "g.bin"
        res = run_cli(
            "build-grid", "--env", ENV_FILE, "--out", out,
            "--roi", 300, 900, 40, 140, "--nr", 13, "--nd", 11,
        )
        assert res.returncode == 0, res.stderr
        assert "geometrically impossible" in res.stdout
        grid = sio.read_grid(out)
        assert grid.values.shape == (13, 11, 4)

    def test_single_point_axis_is_usage_error(self, tmp_path):
        res = run_cli(
            "build-grid", "--env", ENV_FILE, "--out", tmp_path / "g.bin", "--nr", 1
        )
        assert res.returncode == 2

    def test_malformed_env_is_domain_error_with_context(self, tmp_path):
        bad = tmp_path / "env.json"
        bad.write_text("{\n  broken\n}\n")
        res = run_cli(
            "build-grid", "--env", bad, "--out", tmp_path / "g.bin", "--nr", 4, "--nd", 4,
            "--roi", 300, 900, 40, 140,
        )
        assert res.returncode == 1
        assert ":2:" in res.stderr

    @pytest.mark.parametrize(
        "edit, name",
        [
            (lambda doc: doc["ssp_knots"][1].__setitem__(1, float("nan")), "sound speeds"),
            (lambda doc: doc["ssp_knots"][1].__setitem__(1, float("inf")), "sound speeds"),
            (lambda doc: doc["ssp_knots"][1].__setitem__(0, float("nan")), "knot depths"),
            (lambda doc: doc["ssp_knots"][-1].__setitem__(0, float("inf")), "knot depths"),
            (lambda doc: doc.__setitem__("bottom_depth_m", float("nan")), "bottom depth"),
            (lambda doc: doc.__setitem__("bottom_depth_m", float("inf")), "bottom depth"),
            (lambda doc: doc.__setitem__("receiver_depth_m", float("nan")), "receiver depth"),
        ],
        ids=["speed-nan", "speed-inf", "depth-nan", "depth-inf", "bottom-nan", "bottom-inf", "receiver-nan"],
    )
    def test_non_finite_env_value_is_domain_error_by_name(self, tmp_path, edit, name):
        # Python's json reads the NaN and Infinity literals that it writes
        doc = json.loads(ENV_FILE.read_text())
        edit(doc)
        bad = tmp_path / "env.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(sio.EnvFileError, match=name):
            sio.read_environment(bad)
        out = tmp_path / "g.bin"
        res = run_cli("build-grid", "--env", bad, "--out", out, "--nr", 50, "--nd", 10)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and name in res.stderr
        assert not out.exists()

    def test_kind_subset(self, tmp_path):
        out = tmp_path / "g2.bin"
        res = run_cli(
            "build-grid", "--env", ENV_FILE, "--out", out,
            "--roi", 300, 900, 40, 140, "--nr", 5, "--nd", 5, "--kinds", "SB", "DP",
        )
        assert res.returncode == 0, res.stderr
        assert len(sio.read_grid(out).kinds) == 2

    def test_iso_velocity_direct_path_covers_the_column(self, tmp_path):
        # straight-line propagation reaches everywhere: the direct-path
        # layer reports zero impossible entries
        env = tmp_path / "iso.json"
        env.write_text(
            '{"ssp_knots": [[0.0, 1500.0], [216.5, 1500.0]],'
            ' "bottom_depth_m": 216.5, "receiver_depth_m": 150.0}'
        )
        out = tmp_path / "g3.bin"
        res = run_cli(
            "build-grid", "--env", env, "--out", out,
            "--roi", 100, 2500, 10, 175, "--nr", 25, "--nd", 12,
        )
        assert res.returncode == 0, res.stderr
        assert "DP: 0.0000" in res.stdout


class TestSimulate:
    def test_writes_truth_and_observations(self, tiny_setup):
        root, cfg_path, cfg = tiny_setup
        res = run_cli("simulate", "--config", cfg_path)
        assert res.returncode == 0, res.stderr
        truth = sio.read_track_csv(root / "out" / "truth.csv")
        obs = sio.read_observations(root / "out" / "observations.jsonl")
        n_epochs = int(np.ceil(120.0 / 2.048))
        n_drop = sum(1 for i in range(n_epochs) if 40.0 <= i * 2.048 < 60.0)
        assert truth.shape[0] == n_epochs
        assert len(obs) == n_epochs - n_drop

    def test_zero_duration_gives_empty_outputs(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        cfg0 = dict(cfg, output_dir=str(tmp_path), scenario=dict(cfg["scenario"], duration_s=0.0, dropouts=[]))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg0))
        res = run_cli("simulate", "--config", p)
        assert res.returncode == 0, res.stderr
        assert sio.read_track_csv(tmp_path / "truth.csv").shape[0] == 0
        assert sio.read_observations(tmp_path / "observations.jsonl") == []

    def test_seed_repeatability_byte_identical(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        outs = []
        for name in ("a", "b"):
            res = run_cli("simulate", "--config", cfg_path, "--seed", 7, "--out", tmp_path / name)
            assert res.returncode == 0, res.stderr
            outs.append(
                (tmp_path / name / "truth.csv").read_bytes()
                + (tmp_path / name / "observations.jsonl").read_bytes()
            )
        assert outs[0] == outs[1]

    def test_negative_seed_is_usage_error(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        res = run_cli("simulate", "--config", cfg_path, "--seed", -1, "--out", tmp_path / "out")
        assert res.returncode == 2
        assert "seed must be a nonnegative integer" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_missing_grid_file_is_domain_error(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        cfg_bad = dict(cfg, grid_file=str(tmp_path / "nope.bin"))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_bad))
        res = run_cli("simulate", "--config", p)
        assert res.returncode == 1

    def test_unknown_config_key_rejected(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(cfg, typo_key=1)))
        res = run_cli("simulate", "--config", p)
        assert res.returncode == 1
        assert "unknown keys" in res.stderr


class TestTrackAndEvaluate:
    def test_round_trip_pipeline(self, tiny_setup):
        root, cfg_path, cfg = tiny_setup
        assert run_cli("simulate", "--config", cfg_path).returncode == 0
        res = run_cli("track", "--config", cfg_path)
        assert res.returncode == 0, res.stderr
        report_path = root / "report.json"
        res = run_cli(
            "evaluate",
            "--estimates", root / "out" / "estimates.csv",
            "--truth", root / "out" / "truth.csv",
            "--out", report_path,
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(report_path.read_text())
        run = report["runs"][0]
        assert run["n_epochs"] == len(sio.read_observations(root / "out" / "observations.jsonl"))
        assert "rmse_range_m" in run and "final_half" in run

    def test_track_deterministic_across_runs(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        assert run_cli("simulate", "--config", cfg_path).returncode == 0
        blobs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            cfg_t = dict(cfg, output_dir=str(out), observations_file=str(root / "out" / "observations.jsonl"))
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(cfg_t))
            res = run_cli("track", "--config", p, "--seed", 3)
            assert res.returncode == 0, res.stderr
            blobs.append((out / "estimates.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_evaluate_perfect_estimates_have_zero_rmse(self, tmp_path):
        truth = tmp_path / "truth.csv"
        est = tmp_path / "est.csv"
        rows = [(i * 2.048, 1000.0 - i, 60.0, -2.5) for i in range(10)]
        sio.write_track_csv(truth, rows)
        sio.write_estimates_csv(est, [(t, r, d, s, 100.0) for t, r, d, s in rows])
        res = run_cli("evaluate", "--estimates", est, "--truth", truth)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["runs"][0]["rmse_range_m"] == 0.0
        assert report["runs"][0]["rmse_depth_m"] == 0.0

    def test_evaluate_constant_offset(self, tmp_path):
        truth = tmp_path / "truth.csv"
        est = tmp_path / "est.csv"
        rows = [(i * 2.048, 1000.0 - i, 60.0, -2.5) for i in range(10)]
        sio.write_track_csv(truth, rows)
        sio.write_estimates_csv(est, [(t, r + 10.0, d, s, 100.0) for t, r, d, s in rows])
        res = run_cli("evaluate", "--estimates", est, "--truth", truth)
        report = json.loads(res.stdout)
        assert report["runs"][0]["rmse_range_m"] == pytest.approx(10.0)

    def test_evaluate_multiple_runs_in_one_report(self, tmp_path):
        truth = tmp_path / "truth.csv"
        rows = [(i * 2.048, 1000.0, 60.0, 0.0) for i in range(5)]
        sio.write_track_csv(truth, rows)
        paths = []
        for off in (5.0, -3.0):
            p = tmp_path / f"est{off}.csv"
            sio.write_estimates_csv(p, [(t, r + off, d, s, 10.0) for t, r, d, s in rows])
            paths.append(p)
        res = run_cli(
            "evaluate", "--estimates", paths[0], "--estimates", paths[1], "--truth", truth
        )
        report = json.loads(res.stdout)
        assert len(report["runs"]) == 2

    def test_evaluate_empty_truth_is_domain_error(self, tmp_path):
        # simulate writes such a truth for a zero duration
        truth = tmp_path / "truth.csv"
        est = tmp_path / "est.csv"
        sio.write_track_csv(truth, [])
        sio.write_estimates_csv(est, [(2.048, 1000.0, 60.0, -2.5, 100.0)])
        res = run_cli("evaluate", "--estimates", est, "--truth", truth)
        assert res.returncode == 1
        assert res.stderr == "error: the truth has no epochs\n"

    def test_track_missing_observations_is_domain_error(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        cfg_bad = dict(cfg, observations_file=str(tmp_path / "missing.jsonl"))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_bad))
        res = run_cli("track", "--config", p)
        assert res.returncode == 1

    def test_track_with_nan_parameter_exits_1_naming_it(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"), model={"mu_fa": float("nan")})))
        res = run_cli("track", "--config", p)
        assert res.returncode == 1
        assert "mu_fa" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_degenerate_track_writes_the_epochs_before_it(self, tiny_setup, tmp_path):
        # without clutter, the third epoch's five observations cannot come
        # from four paths: every likelihood is zero there
        root, cfg_path, cfg = tiny_setup
        obs = tmp_path / "obs.jsonl"
        doas = [[5.0], [5.0], [20.0, 10.0, 0.0, -10.0, -20.0], [5.0]]
        sio.write_observations(obs, [(i, 2.048 * (i + 1), z) for i, z in enumerate(doas)])
        cfg_d = dict(cfg, output_dir=str(tmp_path / "out"), observations_file=str(obs), model={"mu_fa": 0.0})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_d))
        res = run_cli("track", "--config", p)
        assert res.returncode == 1
        assert "at epoch t = 6.144 s: every likelihood inside the region of interest is zero" in res.stderr
        est = sio.read_estimates_csv(tmp_path / "out" / "estimates.csv")
        assert est[:, 0].tolist() == [2.048, 4.096]


class TestDefaultConfigRoundTrip:
    def test_default_config_round_trip_under_budget(self, tmp_path):
        """The shipped configuration simulates 586 epochs (514 after the two
        74 s dropouts) and completes simulate/track/evaluate well inside
        five minutes at the default particle count."""
        import time

        grid_path = tmp_path / "grid.bin"
        res = run_cli(
            "build-grid", "--env", ENV_FILE, "--out", grid_path,
            "--roi", 100, 3600, 10, 175, "--nr", 351, "--nd", 34,
        )
        assert res.returncode == 0, res.stderr
        cfg = json.loads((REPO / "configs" / "default_run.json").read_text())
        cfg["grid_file"] = str(grid_path)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))

        t0 = time.perf_counter()
        assert run_cli("simulate", "--config", cfg_path).returncode == 0
        assert run_cli("track", "--config", cfg_path).returncode == 0
        res = run_cli(
            "evaluate",
            "--estimates", tmp_path / "out" / "estimates.csv",
            "--truth", tmp_path / "out" / "truth.csv",
        )
        elapsed = time.perf_counter() - t0
        assert res.returncode == 0, res.stderr
        assert elapsed < 300.0

        truth = sio.read_track_csv(tmp_path / "out" / "truth.csv")
        obs = sio.read_observations(tmp_path / "out" / "observations.jsonl")
        assert truth.shape[0] == 586
        assert len(obs) == 586 - 72
        report = json.loads(res.stdout)
        assert report["runs"][0]["n_epochs"] == 514
