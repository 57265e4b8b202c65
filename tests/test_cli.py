import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from swfocal import io as sio
from swfocal.assoc import ModelParams, ObservationSet
import swfocal.cli
from swfocal.cli import _physical_memory, load_config
from swfocal.environment import PathKind
from swfocal.grid import build_doa_grid
from swfocal.simulator import ScenarioConfig
from swfocal.tracking import MotionParams, PriorParams, run_tracker

REPO = Path(__file__).resolve().parent.parent
ENV_FILE = REPO / "configs" / "coastal_216m_env.json"
SCENARIO = {"initial_range_m": 3000.0, "initial_depth_m": 60.0, "initial_speed_mps": -2.5, "duration_s": 100.0}
MEMORY = 2**30  # the physical memory the in-process refusal tests pretend to have
BEYOND = "more than this machine's physical memory"


def refused_in_process(argv, capsys) -> str:
    """The stderr of ``cli.main(argv)``, which must exit 1 with under 1 MiB allocated."""
    tracemalloc.start()
    try:
        assert swfocal.cli.main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    return capsys.readouterr().err


def assert_one_error_line(res, out):
    """A subprocess run refused with exit 1, one ``error:`` line, no traceback and no ``out``."""
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert not out.exists()


def run_cli(*args, cwd=None):
    """``python -m swfocal`` with ``args``, where a numpy RuntimeWarning is an error, as in process."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "swfocal", *map(str, args)],
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
        p.write_text(json.dumps({"grid_file": "grid.bin", "scenario": SCENARIO}))
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
        given = SCENARIO if block == "scenario" else {}  # a scenario block must be complete
        p.write_text(json.dumps({"grid_file": "grid.bin", block: {**given, key: value}}))
        with pytest.raises(ValueError, match=key):
            load_config(p)

    @pytest.mark.parametrize(
        "block, at, value, rule",
        [
            ("prior", "roi", [100.0, 3600.0, 10.0], "must be a list of 4 numbers"),
            ("prior", "roi", 100.0, "must be a list of 4 numbers"),
            ("prior", "roi[2]", [100.0, 3600.0, [10.0], 175.0], "must be a JSON number, got [10.0]"),
            ("scenario", "dropouts[0]", [[10.0, 20.0, 30.0]], "must be a list of 2 numbers"),
            ("scenario", "dropouts[0]", [10.0, 20.0], "must be a list of 2 numbers, got 10.0"),
            ("scenario", "dropouts[0][1]", [[1.0, [2.0, 3.0]]], "must be a JSON number, got [2.0, 3.0]"),
            ("scenario", "dropouts[0]", [[20.0, 10.0]], "a dropout window must end after it starts"),
            ("scenario", "dropouts[0]", [[10.0, 200.0]], "dropout windows must lie within the run duration"),
            ("model", "sigma_deg", 0.5, "must be a list of numbers"),
            ("model", "sigma_deg", [0.5, 0.5, 2.0], "need one noise standard deviation per path"),
            ("motion", "step_s", [2.048], "must be a JSON number"),
            ("scenario", "truth_motion", "random", "must be 'deterministic' or 'stochastic', got 'random'"),
            ("scenario", "initial_range_m", 5000.0, "must lie in the region of interest, [100.0, 3600.0], got 5000.0"),
        ],
        ids=[
            "roi-of-three", "roi-number", "roi-nested", "window-of-three", "flat-window", "window-nested",
            "reversed-window", "window-beyond", "sigma-number", "sigma-of-three", "step-list",
            "truth-motion-random", "start-beyond-the-roi",
        ],
    )
    def test_a_value_of_the_wrong_shape_names_its_key_and_rule(self, tmp_path, block, at, value, rule):
        # ``at`` is the key path of the offending element
        p = tmp_path / "run.json"
        given = SCENARIO if block == "scenario" else {}  # a scenario block must be complete
        p.write_text(json.dumps({"grid_file": "grid.bin", block: {**given, at.split("[")[0]: value}}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {at}: ')}.*{re.escape(rule)}"):
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
            with pytest.raises(ValueError, match=f"^{p}: {key}: must be an integer"):
                load_config(p)

    @pytest.mark.parametrize("value", [None, 5])
    @pytest.mark.parametrize("key", ["grid_file", "output_dir", "observations_file", "truth_file"])
    def test_path_keys_must_be_strings(self, tmp_path, key, value):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", key: value}))
        with pytest.raises(ValueError, match=f"^{p}: {key}: must be a string"):
            load_config(p)

    @pytest.mark.parametrize(
        "block, at, value, bad",
        [
            ("model", "detect_prob", True, True),
            ("motion", "step_s", True, True),
            ("model", "mu_fa", "2.5", "2.5"),
            ("prior", "roi[0]", ["100", "3600", 10, 175], "100"),
            ("model", "sigma_deg[2]", [0.5, 0.5, False, 2.0], False),
            ("scenario", "dropouts[0][1]", [[420.0, "494"]], "494"),
            ("scenario", "initial_depth_m", None, None),
        ],
    )
    def test_float_keys_must_be_json_numbers(self, tmp_path, block, at, value, bad):
        # the key path of the offending element, and that element alone
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", block: {at.split("[")[0]: value}}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {at}: must be a JSON number, got {bad!r}')}$"):
            load_config(p)

    def test_environment_file_is_an_unknown_key(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "environment_file": "env.json"}))
        with pytest.raises(ValueError, match="unknown keys"):
            load_config(p)

    def test_scenario_step_is_an_unknown_key(self, tmp_path):
        # the epoch step is the motion step
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "scenario": {"step_s": 2.048}}))
        with pytest.raises(ValueError, match="unknown keys"):
            load_config(p)

    def test_without_a_scenario_block_there_is_no_scenario(self, tmp_path):
        # the acceptance roi does not hold the default run's 3500 m start, and need not
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "prior": {"roi": [100, 2500, 10, 175]}}))
        cfg = load_config(p)
        assert cfg.scenario is None
        assert cfg.prior.roi == (100.0, 2500.0, 10.0, 175.0)

    def test_scenario_without_dropouts_has_none(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "scenario": dict(SCENARIO, duration_s=10.0)}))
        scenario = load_config(p).scenario
        assert scenario.dropouts == ()
        assert scenario.duration_s == 10.0

    def test_scenario_block_must_be_complete(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", "scenario": {"initial_range_m": 3000.0}}))
        with pytest.raises(ValueError, match=r"scenario: missing keys \['duration_s', 'initial_depth_m'"):
            load_config(p)

    @pytest.mark.parametrize("value", [[["mu_fa", 3.0]], 5, "mu_fa"], ids=["pairs", "number", "string"])
    @pytest.mark.parametrize("block", ["model", "motion", "prior", "scenario"])
    def test_a_block_must_be_a_json_object(self, tmp_path, block, value):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"grid_file": "grid.bin", block: value}))
        with pytest.raises(ValueError, match=f"^{p}: {block}: must be a JSON object"):
            load_config(p)

    @pytest.mark.parametrize("doc", ["[1, 2]", "{", '{"grid_file": "grid.bin"} 1'])
    def test_config_must_be_one_json_object(self, tmp_path, doc):
        p = tmp_path / "run.json"
        p.write_text(doc)
        with pytest.raises(ValueError, match=f"^{p}"):
            load_config(p)

    @pytest.mark.parametrize("K", [2, 4])
    def test_particles_beyond_physical_memory_are_refused_before_any_allocation(
        self, tiny_setup, tmp_path, monkeypatch, capsys, K
    ):
        # load_config takes any J; track refuses, before the tracker runs and
        # with nothing of the particles' size allocated, the J whose
        # particles and association DP at the largest record, M = 3 angles
        # here, need more than physical memory: the bound runs, one more
        # particle or 10**31 is one error line naming the config
        _, _, cfg = tiny_setup
        obs = tmp_path / "obs.jsonl"
        sio.write_observations(obs, [(0, 2.048, [5.0]), (1, 4.096, [40.0, 30.0, 20.0])])
        per_particle = 8 * (8 + 6 * K + (K + 1) * 4 + 3 * K)
        most = MEMORY // per_particle
        p = tmp_path / "run.json"
        out = tmp_path / "out"

        def write(J):
            p.write_text(json.dumps(dict(cfg, K=K, J=J, output_dir=str(out), observations_file=str(obs))))

        def no_tracking(*args, **kwargs):
            raise AssertionError("the tracker ran")

        monkeypatch.setattr(swfocal.cli, "run_tracker", no_tracking)
        monkeypatch.setattr(swfocal.cli, "_physical_memory", lambda: MEMORY)
        write(most)
        with pytest.raises(AssertionError, match="the tracker ran"):
            swfocal.cli.main(["track", "--config", str(p)])
        for J in (most + 1, 10**31):
            write(J)
            assert load_config(p).n_particles == J
            assert refused_in_process(["track", "--config", str(p)], capsys) == (
                f"error: {p}: J = {J} particles at K = {K} over records of up to 3 angles in {obs} "
                f"needs {J * per_particle} bytes, {BEYOND}\n"
            )
        assert_one_error_line(run_cli("track", "--config", p), out)

    def test_grid_file_is_required(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"J": 100}))
        with pytest.raises(ValueError, match=r"missing keys \['grid_file'\]"):
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

    def test_creates_the_parent_of_a_relative_out(self, tmp_path):
        res = run_cli(
            "build-grid", "--env", ENV_FILE, "--out", "out/grid.bin", "--nr", 5, "--nd", 5,
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert sio.read_grid(tmp_path / "out" / "grid.bin").values.shape == (5, 5, 4)

    def test_a_grid_beyond_physical_memory_is_refused_before_any_allocation(self, tmp_path, monkeypatch, capsys):
        # the values' bound is built; one range more, or 10**12 ranges, is one
        # error line and exit 1, before any row is solved and with nothing of
        # the grid's size allocated
        n_d = 165
        n_r = MEMORY // (8 * len(PathKind) * n_d)
        out = tmp_path / "g.bin"

        def no_build(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(swfocal.cli, "build_doa_grid", no_build)
        monkeypatch.setattr(swfocal.cli, "_physical_memory", lambda: MEMORY)
        argv = ["build-grid", "--env", str(ENV_FILE), "--out", str(out), "--nd", str(n_d), "--nr"]
        with pytest.raises(AssertionError, match="the grid was built"):
            swfocal.cli.main([*argv, str(n_r)])
        for nr in (n_r + 1, 10**12):
            assert refused_in_process([*argv, str(nr)], capsys) == (
                f"error: a {nr} x {n_d} grid needs {32 * nr * n_d} bytes, {BEYOND}\n"
            )
        res = run_cli("build-grid", "--env", ENV_FILE, "--out", out, "--nr", 10**12, "--nd", n_d)
        assert_one_error_line(res, out)

    def test_nan_roi_is_refused_by_the_roi_rule(self, tmp_path):
        out = tmp_path / "g.bin"
        res = run_cli(
            "build-grid", "--env", ENV_FILE, "--out", out, "--roi", 100, 3600, 10, "nan", "--nr", 5, "--nd", 5
        )
        assert res.returncode == 1
        assert res.stderr == "error: roi: the depth span must be positive and finite, got [100.0, 3600.0, 10.0, nan]\n"
        assert not out.exists()

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
            (lambda doc: doc["ssp_knots"][1].__setitem__(1, float("nan")), "ssp_knots[1][1]: sound speeds"),
            (lambda doc: doc["ssp_knots"][1].__setitem__(1, float("inf")), "ssp_knots[1][1]: sound speeds"),
            (lambda doc: doc["ssp_knots"][1].__setitem__(0, float("nan")), "ssp_knots[1][0]: knot depths"),
            (lambda doc: doc["ssp_knots"][-1].__setitem__(0, float("inf")), "ssp_knots[14][0]: knot depths"),
            (lambda doc: doc.__setitem__("bottom_depth_m", float("nan")), "bottom_depth_m: must be positive"),
            (lambda doc: doc.__setitem__("bottom_depth_m", float("inf")), "bottom_depth_m: must be positive"),
            (lambda doc: doc.__setitem__("receiver_depth_m", float("nan")), "receiver_depth_m: must lie strictly"),
            (lambda doc: doc["ssp_knots"][1].append(1500.0), "ssp_knots[1]: must be a list of 2 numbers"),
            (lambda doc: doc["ssp_knots"][1].__setitem__(1, [1500.0]), "ssp_knots[1][1]: must be a JSON number"),
            (lambda doc: doc.__setitem__("bottom_depth_m", [216.5]), "bottom_depth_m: must be a JSON number"),
            (lambda doc: doc.__setitem__("ssp_knots", doc["ssp_knots"][:1]), "ssp_knots: sound speed profile needs"),
            (
                lambda doc: doc.__setitem__("bottom_depth_m", -1),
                "bottom_depth_m: must be positive and at most 1e+100 m, got -1.0",
            ),
            (lambda doc: doc.__setitem__("receiver_depth_m", 300), "receiver_depth_m: must lie strictly inside"),
            (lambda doc: doc["ssp_knots"][0].__setitem__(0, 5.0), "ssp_knots[0][0]: the first knot must be at"),
            (lambda doc: doc["ssp_knots"].insert(3, [35.0, 1510.0]), "ssp_knots[4][0]: knot depths must be strictly"),
            (lambda doc: doc["ssp_knots"][2].__setitem__(1, -1), "ssp_knots[2][1]: sound speeds must be positive"),
            (lambda doc: doc["ssp_knots"].pop(), "ssp_knots: the profile must reach the bottom at 216.5 m"),
        ],
        ids=[
            "speed-nan", "speed-inf", "depth-nan", "depth-inf", "bottom-nan", "bottom-inf", "receiver-nan",
            "knot-of-three", "knot-nested", "bottom-list", "one-knot", "bottom-negative", "receiver-below-bottom",
            "first-knot-below-surface", "knots-out-of-order", "speed-negative", "profile-short-of-bottom",
        ],
    )
    def test_non_finite_env_value_is_domain_error_by_name(self, tmp_path, edit, name):
        # Python's json reads the NaN and Infinity literals that it writes
        doc = json.loads(ENV_FILE.read_text())
        edit(doc)
        bad = tmp_path / "env.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{bad}: {name}')}"):
            sio.read_environment(bad)
        out = tmp_path / "g.bin"
        res = run_cli("build-grid", "--env", bad, "--out", out, "--nr", 50, "--nd", 10)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and name in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, rule",
        [
            (
                lambda knots: knots[3].__setitem__(1, 1e308),
                "ssp_knots[3][1]: sound speeds must be positive and at most 1e+100 m/s, got 1e+308",
            ),
            (
                lambda knots: (knots[3].__setitem__(1, 1e200), knots[4].__setitem__(1, 1.1e200)),
                "ssp_knots[3][1]: sound speeds must be positive and at most 1e+100 m/s, got 1e+200",
            ),
            (
                lambda knots: [knot.__setitem__(1, knot[1] * 1e200) for knot in knots],
                "ssp_knots[0][1]: sound speeds must be positive and at most 1e+100 m/s, got 1.5219e+203",
            ),
            (
                lambda knots: knots[-1].__setitem__(0, 1e308),
                "ssp_knots[14][0]: knot depths must be strictly increasing and at most 1e+100 m, "
                "got 1e+308 after 190.0",
            ),
        ],
        ids=["one-speed-1e308", "neighbouring-speeds-1e200", "every-speed-times-1e200", "bottom-1e308"],
    )
    def test_a_speed_or_depth_beyond_what_the_solve_can_square_is_refused_by_element(self, tmp_path, edit, rule):
        # only speed ratios and depths enter the solve, but it squares speeds
        # and multiplies depths by them: at the parent each of these let a
        # numpy overflow warning escape build-grid
        doc = json.loads(ENV_FILE.read_text())
        edit(doc["ssp_knots"])
        doc["bottom_depth_m"] = doc["ssp_knots"][-1][0]
        bad, out = tmp_path / "env.json", tmp_path / "g.bin"
        bad.write_text(json.dumps(doc))
        res = run_cli("build-grid", "--env", bad, "--out", out, "--nr", 20, "--nd", 8)
        assert_one_error_line(res, out)
        assert res.stderr == f"error: {bad}: {rule}\n"

    def test_the_deepest_bottom_allowed_builds_with_vertical_bottom_paths(self, tmp_path):
        # at the parent the bottom paths' brackets met f = -1 at both ends,
        # and the secant's division by zero escaped as a numpy warning
        doc = json.loads(ENV_FILE.read_text())
        doc["ssp_knots"][-1][0] = doc["bottom_depth_m"] = 1e100
        env, out = tmp_path / "env.json", tmp_path / "g.bin"
        env.write_text(json.dumps(doc))
        res = run_cli("build-grid", "--env", env, "--out", out, "--nr", 20, "--nd", 8)
        assert (res.returncode, res.stderr) == (0, "")
        values = sio.read_grid(out).values
        assert (values[..., 2:] == -90.0).all()

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
        assert (res.returncode, res.stderr) == (0, "")
        truth = sio.read_track_csv(root / "out" / "truth.csv")
        obs = sio.read_observations(root / "out" / "observations.jsonl")
        n_epochs = int(np.ceil(120.0 / 2.048))
        n_drop = sum(1 for i in range(n_epochs) if 40.0 <= i * 2.048 < 60.0)
        assert truth.shape[0] == n_epochs
        assert len(obs) == n_epochs - n_drop
        out = root / "out"
        assert res.stdout == (
            f"simulated {n_epochs} epochs ({n_epochs - n_drop} with data) -> {out / 'truth.csv'}, "
            f"{out / 'observations.jsonl'}\n"
        )

    def test_a_truth_that_leaves_the_roi_is_cut_and_named_on_the_summary_line(self, tiny_setup, tmp_path):
        # from the shell, where no log capture hides a stray line: the cut
        # exits 0 with nothing on stderr, and the summary names it
        root, cfg_path, cfg = tiny_setup
        p, out = tmp_path / "c.json", tmp_path / "out"
        scenario = dict(cfg["scenario"], initial_speed_mps=5.0, duration_s=100.0)  # at 1200 m after 20 s
        p.write_text(json.dumps(dict(cfg, output_dir=str(out), scenario=scenario)))
        res = run_cli("simulate", "--config", p)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == (
            "simulated 10 of 49 epochs (10 with data; the truth left the region of interest after t = 18.432 s) "
            f"-> {out / 'truth.csv'}, {out / 'observations.jsonl'}\n"
        )
        assert sio.read_track_csv(out / "truth.csv")[:, 0].tolist() == [i * 2.048 for i in range(10)]

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
        assert res.stderr == f"error: {tmp_path / 'nope.bin'}: No such file or directory\n"

    def test_without_a_scenario_block_is_domain_error(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        cfg_n = {k: v for k, v in cfg.items() if k != "scenario"}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(cfg_n, output_dir=str(tmp_path / "out"))))
        res = run_cli("simulate", "--config", p)
        assert res.returncode == 1
        assert res.stderr == f"error: {p}: config: missing keys ['scenario'], which simulate needs\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(cfg, typo_key=1)))
        res = run_cli("simulate", "--config", p)
        assert res.returncode == 1
        assert "unknown keys" in res.stderr

    def test_a_duration_beyond_physical_memory_is_refused_before_any_allocation(
        self, tiny_setup, tmp_path, monkeypatch, capsys
    ):
        # load_config takes any duration; simulate runs the bound's epochs and
        # refuses one epoch more, or 1e15 s, with one error line naming the
        # config, before the truth is made and with nothing of the epochs'
        # size allocated
        root, cfg_path, cfg = tiny_setup
        most, step = MEMORY // (8 * (4 + 5 * 4)), MotionParams().step_s
        p = tmp_path / "run.json"
        out = tmp_path / "out"

        def write(duration):
            scenario = dict(cfg["scenario"], duration_s=duration)
            p.write_text(json.dumps(dict(cfg, output_dir=str(out), scenario=scenario)))

        def no_truth(*args, **kwargs):
            raise AssertionError("the truth was made")

        monkeypatch.setattr(swfocal.cli, "generate_truth", no_truth)
        monkeypatch.setattr(swfocal.cli, "_physical_memory", lambda: MEMORY)
        write((most - 0.5) * step)
        with pytest.raises(AssertionError, match="the truth was made"):
            swfocal.cli.main(["simulate", "--config", str(p)])
        for duration, epochs in (((most + 0.5) * step, most + 1), (1e15, np.ceil(1e15 / step))):
            write(duration)
            assert load_config(p).scenario.duration_s == duration
            assert refused_in_process(["simulate", "--config", str(p)], capsys) == (
                f"error: {p}: duration_s = {duration} s in steps of {step} s at K = 4 "
                f"needs {np.float64(8 * 24 * epochs)} bytes, {BEYOND}\n"
            )
        assert_one_error_line(run_cli("simulate", "--config", p), out)

    def test_an_epoch_count_beyond_the_float_range_is_refused(self, tiny_setup, tmp_path):
        # 1e300 s in steps of 1e-300 s passes both dataclasses, and its epoch
        # count overflows to inf: refused, not converted to an integer
        root, cfg_path, cfg = tiny_setup
        p = tmp_path / "run.json"
        scenario = dict(cfg["scenario"], duration_s=1e300, dropouts=[])
        doc = dict(cfg, output_dir=str(tmp_path / "out"), scenario=scenario, motion={"step_s": 1e-300})
        p.write_text(json.dumps(doc))
        res = run_cli("simulate", "--config", p)
        assert_one_error_line(res, tmp_path / "out")
        assert res.stderr == (
            f"error: {p}: duration_s = 1e+300 s in steps of 1e-300 s at K = 4 needs inf bytes, {BEYOND}\n"
        )

    def test_a_duration_near_the_float_maximum_is_refused_with_no_warning(self, tiny_setup, tmp_path, capsys):
        # the epoch count's bytes overflow to inf, which the memory check refuses
        root, cfg_path, cfg = tiny_setup
        p, out = tmp_path / "c.json", tmp_path / "out"
        p.write_text(json.dumps(dict(cfg, output_dir=str(out), scenario=dict(cfg["scenario"], duration_s=1e308))))
        assert swfocal.cli.main(["simulate", "--config", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}: duration_s = 1e+308 s in steps of 2.048 s at K = 4 needs inf bytes, {BEYOND}\n"
        )
        assert not out.exists()

    def test_a_speed_near_the_float_maximum_leaves_the_roi_with_no_warning(self, tiny_setup, tmp_path, capsys):
        # the deterministic truth's ranges overflow to inf after the start,
        # outside the region of interest: the track is truncated to one epoch
        root, cfg_path, cfg = tiny_setup
        p, out = tmp_path / "c.json", tmp_path / "out"
        scenario = dict(cfg["scenario"], initial_speed_mps=1e308)
        p.write_text(json.dumps(dict(cfg, output_dir=str(out), scenario=scenario)))
        assert swfocal.cli.main(["simulate", "--config", str(p)]) == 0
        assert capsys.readouterr() == (
            "simulated 1 of 59 epochs (1 with data; the truth left the region of interest after t = 0.000 s) "
            f"-> {out / 'truth.csv'}, {out / 'observations.jsonl'}\n",
            "",
        )
        assert sio.read_track_csv(out / "truth.csv")[:, 1].tolist() == [1100.0]

    def test_a_noise_deviation_near_the_float_maximum_simulates_with_no_warning(self, tiny_setup, tmp_path, capsys):
        # an SB detection's noise overflows to +-inf and is clipped into [-90, 90)
        root, cfg_path, cfg = tiny_setup
        p, out = tmp_path / "c.json", tmp_path / "out"
        p.write_text(json.dumps(dict(cfg, output_dir=str(out), model={"sigma_deg": [1e308, 0.5, 2.0, 2.0]})))
        assert swfocal.cli.main(["simulate", "--config", str(p)]) == 0
        assert capsys.readouterr().err == ""
        doas = np.concatenate([z for *_, z in sio.read_observations(out / "observations.jsonl")])
        assert ((doas >= -90.0) & (doas < 90.0)).all() and (np.abs(doas) > 89.0).any()

    def test_ignores_the_particle_count(self, tiny_setup, tmp_path):
        # simulate draws no particles, so a J far beyond physical memory runs
        root, cfg_path, cfg = tiny_setup
        p = tmp_path / "run.json"
        p.write_text(json.dumps(dict(cfg, J=10**31, output_dir=str(tmp_path / "out"))))
        res = run_cli("simulate", "--config", p)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "out" / "observations.jsonl").exists()


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

    def test_track_with_two_paths_runs_on_the_sb_and_dp_layers(self, tiny_setup, tmp_path):
        # "K": 2 with no model block: the first two layers of the four-path
        # grid file and the first two default noise levels
        root, cfg_path, cfg = tiny_setup
        assert run_cli("simulate", "--config", cfg_path).returncode == 0
        obs_path = root / "out" / "observations.jsonl"
        cfg_2 = dict(cfg, K=2, output_dir=str(tmp_path / "out"), observations_file=str(obs_path))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_2))
        res = run_cli("track", "--config", p, "--seed", 5)
        assert res.returncode == 0, res.stderr

        grid = sio.read_grid(cfg["grid_file"])
        assert len(grid.kinds) == 4
        estimates = run_tracker(
            grid.select_kinds((PathKind.SB, PathKind.DP)),
            [(t, ObservationSet(z=doas)) for _, t, doas in sio.read_observations(obs_path)],
            ModelParams(2, (0.5, 0.5), 0.9, 4.0),
            MotionParams(),
            PriorParams(roi=tuple(cfg["prior"]["roi"]), speed_std=5.0),
            J=cfg["J"],
            seed=5,
        )
        want = tmp_path / "want.csv"
        sio.write_estimates_csv(want, ((t, e.range_m, e.depth_m, e.speed_mps, ess) for t, e, ess in estimates))
        assert (tmp_path / "out" / "estimates.csv").read_bytes() == want.read_bytes()

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
        assert res.stderr == f"error: {truth}: the truth has no epochs\n"

    def test_evaluate_names_the_estimates_file_off_the_truth_timeline(self, tmp_path):
        truth, matched, unmatched = (tmp_path / f"{name}.csv" for name in ("truth", "matched", "unmatched"))
        rows = [(i * 2.048, 1000.0, 60.0, 0.0) for i in range(5)]
        sio.write_track_csv(truth, rows)
        sio.write_estimates_csv(matched, [(t, r, d, s, 10.0) for t, r, d, s in rows])
        sio.write_estimates_csv(unmatched, [(t + 1.0, r, d, s, 10.0) for t, r, d, s in rows])
        res = run_cli("evaluate", "--estimates", matched, "--estimates", unmatched, "--truth", truth)
        assert res.returncode == 1
        assert res.stderr == f"error: {unmatched}: no estimate epochs match the truth timeline\n"

    @pytest.mark.parametrize(
        "times, line, rule",
        [
            ((4.0, 0.0, 2.0), 3, "must increase from line to line, got 0.0 after 4.0"),
            ((0.0, 2.0, 2.0), 4, "must increase from line to line, got 2.0 after 2.0"),
            ((0.0, float("nan"), 4.0), 3, "must be a finite number, got 'nan'"),
        ],
    )
    def test_evaluate_truth_times_out_of_order_are_domain_error(self, tmp_path, times, line, rule):
        # the time join bisects the truth times, so unsorted ones match the wrong epochs
        truth = tmp_path / "truth.csv"
        est = tmp_path / "est.csv"
        sio.write_track_csv(truth, [(t, 1000.0, 60.0, -2.5) for t in times])
        sio.write_estimates_csv(est, [(t, 1000.0, 60.0, -2.5, 100.0) for t in (0.0, 2.0, 4.0)])
        res = run_cli("evaluate", "--estimates", est, "--truth", truth)
        assert res.returncode == 1
        assert res.stderr == f"error: {truth}:{line}: time_s: {rule}\n"

    def test_track_needs_no_scenario_block(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        assert run_cli("simulate", "--config", cfg_path).returncode == 0
        cfg_t = {k: v for k, v in cfg.items() if k != "scenario"}
        cfg_t.update(output_dir=str(tmp_path / "out"), observations_file=str(root / "out" / "observations.jsonl"))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_t))
        res = run_cli("track", "--config", p)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "out" / "estimates.csv").exists()

    @pytest.mark.parametrize(
        "which, row, bad",
        [("est", 1, "nan"), ("truth", 2, "inf"), ("est", 2, "1.0.0")],
        ids=["estimate-nan", "truth-inf", "estimate-unparsable"],
    )
    def test_evaluate_rejects_a_value_that_is_no_finite_number(self, tmp_path, which, row, bad):
        # the report would otherwise carry NaN or Infinity, which are not JSON
        rows = [(i * 2.048, 1000.0 - i, 60.0, -2.5) for i in range(3)]
        files = {"truth": tmp_path / "truth.csv", "est": tmp_path / "est.csv"}
        sio.write_track_csv(files["truth"], rows)
        sio.write_estimates_csv(files["est"], [(*r, 100.0) for r in rows])
        lines = files[which].read_text().splitlines()
        lines[row] = lines[row].replace("60.0", bad)
        files[which].write_text("\n".join(lines) + "\n")
        res = run_cli("evaluate", "--estimates", files["est"], "--truth", files["truth"])
        assert res.returncode == 1
        assert res.stderr == f"error: {files[which]}:{row + 1}: depth_m: must be a finite number, got {bad!r}\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("estimate, truth", [(1e200, 1000.0), (1.5e308, -1.5e308)], ids=["square", "difference"])
    def test_evaluate_rejects_errors_that_overflow(self, tmp_path, estimate, truth):
        # a finite estimate whose error, or its square, overflows: one error
        # line naming the estimates file, and no numpy warning
        rows = [(i * 2.048, truth, 60.0, -2.5) for i in range(3)]
        files = {"truth": tmp_path / "truth.csv", "est": tmp_path / "est.csv"}
        sio.write_track_csv(files["truth"], rows)
        last = (rows[2][0], estimate, 60.0, -2.5)
        sio.write_estimates_csv(files["est"], [(*r, 100.0) for r in [*rows[:2], last]])
        with pytest.raises(ValueError, match="^estimates: the errors against the truth overflow the float range$"):
            swfocal.cli.evaluate_run(sio.read_estimates_csv(files["est"]), sio.read_track_csv(files["truth"]))
        res = run_cli("evaluate", "--estimates", files["est"], "--truth", files["truth"])
        assert res.returncode == 1
        assert res.stderr == f"error: {files['est']}: the errors against the truth overflow the float range\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("which", ["truth", "est"])
    def test_evaluate_names_a_csv_file_that_is_not_utf8(self, tmp_path, capsys, which):
        # the readers decode as they iterate: a decode error names its file as any other refusal
        rows = [(i * 2.048, 1000.0 - i, 60.0, -2.5) for i in range(3)]
        files = {"truth": tmp_path / "truth.csv", "est": tmp_path / "est.csv"}
        sio.write_track_csv(files["truth"], rows)
        sio.write_estimates_csv(files["est"], [(*r, 100.0) for r in rows])
        raw = files[which].read_bytes()
        at = raw.index(b"60.0")
        files[which].write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
        argv = ["evaluate", "--estimates", str(files["est"]), "--truth", str(files["truth"])]
        assert swfocal.cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: {files[which]}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
        )

    def test_track_names_an_observation_file_that_is_not_utf8(self, tiny_setup, tmp_path, capsys):
        root, cfg_path, cfg = tiny_setup
        obs = tmp_path / "obs.jsonl"
        sio.write_observations(obs, [(0, 2.048, [5.0]), (1, 4.096, [20.0, 5.0])])
        raw = obs.read_bytes()
        at = raw.index(b"20.0")
        obs.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"), observations_file=str(obs))))
        assert swfocal.cli.main(["track", "--config", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: {obs}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()

    def test_track_missing_observations_is_domain_error(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        cfg_bad = dict(cfg, observations_file=str(tmp_path / "missing.jsonl"))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_bad))
        res = run_cli("track", "--config", p)
        assert res.returncode == 1
        assert res.stderr == f"error: {tmp_path / 'missing.jsonl'}: No such file or directory\n"

    def test_track_with_a_speed_prior_near_the_float_maximum_loses_every_particle_with_no_warning(
        self, tiny_setup, tmp_path, capsys
    ):
        # the first step moves every particle out of the region of interest,
        # most of them to +-inf: one error line, and no numpy warning
        root, cfg_path, cfg = tiny_setup
        obs, p, out = tmp_path / "obs.jsonl", tmp_path / "c.json", tmp_path / "out"
        sio.write_observations(obs, [(0, 2.048, [20.0, 5.0]), (1, 4.096, [5.0])])
        prior = dict(cfg["prior"], speed_std=1e308)
        p.write_text(json.dumps(dict(cfg, output_dir=str(out), observations_file=str(obs), prior=prior)))
        assert swfocal.cli.main(["track", "--config", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: all particle weights vanished at epoch t = 2.048 s: every particle left the region of interest\n"
        )

    @pytest.mark.parametrize("mu", [2.0, 1000.0])
    def test_track_with_noise_deviations_near_the_float_maximum_runs_with_no_warning(
        self, tiny_setup, tmp_path, capsys, mu
    ):
        # the association gate's reach overflows to inf: every row is live;
        # at mu_fa = 1000 so does the marginal bound's sigma sqrt(2 pi) f_fa mu
        root, cfg_path, cfg = tiny_setup
        obs, p, out = tmp_path / "obs.jsonl", tmp_path / "c.json", tmp_path / "out"
        sio.write_observations(obs, [(0, 2.048, [20.0, 5.0]), (1, 4.096, [5.0])])
        model = {"sigma_deg": [1e308] * 4, "mu_fa": mu}
        p.write_text(json.dumps(dict(cfg, output_dir=str(out), observations_file=str(obs), model=model)))
        assert swfocal.cli.main(["track", "--config", str(p)]) == 0
        assert capsys.readouterr().err == ""
        assert sio.read_estimates_csv(out / "estimates.csv")[:, 0].tolist() == [2.048, 4.096]

    def test_track_with_nan_parameter_exits_1_naming_it(self, tiny_setup, tmp_path):
        root, cfg_path, cfg = tiny_setup
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"), model={"mu_fa": float("nan")})))
        res = run_cli("track", "--config", p)
        assert res.returncode == 1
        assert "mu_fa" in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mu", [1e-300, 1e-320])
    def test_track_with_a_clutter_mean_that_would_overflow_exits_1_naming_it(self, tiny_setup, tmp_path, mu):
        # the association marginal's bound is far beyond the float range at
        # mu_fa = 1e-300, and inf at the subnormal 1e-320, where the bound's
        # own division overflows: one error line, no numpy warning and no estimates
        root, cfg_path, cfg = tiny_setup
        obs, p, out = tmp_path / "obs.jsonl", tmp_path / "c.json", tmp_path / "out"
        sio.write_observations(obs, [(0, 2.048, [20.0, 5.0, -3.0])])
        p.write_text(json.dumps(dict(cfg, output_dir=str(out), observations_file=str(obs), model={"mu_fa": mu})))
        res = run_cli("track", "--config", p)
        assert_one_error_line(res, out)
        assert res.stderr.startswith("error: mu_fa: must be 0, for no clutter, ") and res.stderr.endswith(f", got {mu}\n")

    @pytest.mark.parametrize("command", ["simulate", "track"])
    @pytest.mark.parametrize(
        "layers, roi, start",
        [
            (2, [300.0, 1200.0, 30.0, 150.0], 1100.0),
            (4, [100.0, 1200.0, 30.0, 150.0], 1100.0),
            (4, [1300.0, 1500.0, 30.0, 150.0], 1400.0),
        ],
        ids=["K-beyond-the-layers", "roi-beyond-the-grid", "roi-beside-the-grid"],
    )
    def test_a_config_must_fit_its_grid(self, tiny_setup, tmp_path, capsys, command, layers, roi, start):
        # refused before anything runs, naming the config, the key and the
        # grid: a prior roi beyond the grid's would start particles, or run
        # the simulated truth, where the grid has no angles
        root, cfg_path, cfg = tiny_setup
        grid_file, p, out = str(tmp_path / "grid.bin"), tmp_path / "c.json", tmp_path / "out"
        sio.write_grid(grid_file, sio.read_grid(cfg["grid_file"]).select_kinds(tuple(PathKind)[:layers]))
        scenario, prior = dict(cfg["scenario"], initial_range_m=start), dict(cfg["prior"], roi=roi)
        p.write_text(json.dumps(dict(cfg, grid_file=grid_file, output_dir=str(out), prior=prior, scenario=scenario)))
        assert swfocal.cli.main([command, "--config", str(p)]) == 1
        want = f"K: must be at most the 2 layers of {grid_file}, got 4" if layers == 2 else (
            f"roi: must lie inside the region of interest of {grid_file}, [300.0, 1200.0, 30.0, 150.0], got {roi}"
        )
        assert capsys.readouterr().err == f"error: {p}: {want}\n"
        assert not out.exists()

    def test_a_record_beyond_physical_memory_is_refused_before_tracking(
        self, tiny_setup, tmp_path, monkeypatch, capsys
    ):
        # at a J whose particles and association DP fit for records of five
        # angles, a record of six needs more than physical memory: one error
        # line naming the config and the observations, before the tracker
        # runs and with nothing of that size allocated
        root, cfg_path, cfg = tiny_setup
        J = MEMORY // (8 * (37 + 9 * 5))  # 8 + 6K + (K + 1)(M + 1) + MK doubles per particle at K = 4
        obs = tmp_path / "obs.jsonl"
        p = tmp_path / "c.json"
        out = tmp_path / "out"

        def write(records, J=J):
            sio.write_observations(obs, records)
            p.write_text(json.dumps(dict(cfg, J=J, output_dir=str(out), observations_file=str(obs))))

        def no_tracking(*args, **kwargs):
            raise AssertionError("the tracker ran")

        monkeypatch.setattr(swfocal.cli, "run_tracker", no_tracking)
        monkeypatch.setattr(swfocal.cli, "_physical_memory", lambda: MEMORY)
        five, six = [40.0, 30.0, 20.0, 10.0, 0.0], [40.0, 30.0, 20.0, 10.0, 0.0, -10.0]
        write([(0, 2.048, [5.0]), (1, 4.096, five)])
        with pytest.raises(AssertionError, match="the tracker ran"):
            swfocal.cli.main(["track", "--config", str(p)])
        write([(0, 2.048, [5.0]), (1, 4.096, six)])
        assert refused_in_process(["track", "--config", str(p)], capsys) == (
            f"error: {p}: J = {J} particles at K = 4 over records of up to 6 angles in {obs} "
            f"needs {8 * J * (37 + 9 * 6)} bytes, {BEYOND}\n"
        )
        # on this machine: the J whose particles fit with records of no angle
        write([(0, 2.048, [5.0]), (1, 4.096, six)], J=_physical_memory() // (8 * 37))
        assert_one_error_line(run_cli("track", "--config", p), out)

    def test_track_ignores_the_scenario_size(self, tiny_setup, tmp_path):
        # track simulates nothing, so a scenario of 1e15 s runs
        root, cfg_path, cfg = tiny_setup
        obs = tmp_path / "obs.jsonl"
        sio.write_observations(obs, [(0, 2.048, [5.0]), (1, 4.096, [20.0, 5.0])])
        scenario = dict(cfg["scenario"], duration_s=1e15)
        p = tmp_path / "c.json"
        doc = dict(cfg, output_dir=str(tmp_path / "out"), observations_file=str(obs), scenario=scenario)
        p.write_text(json.dumps(doc))
        res = run_cli("track", "--config", p)
        assert res.returncode == 0, res.stderr
        assert sio.read_estimates_csv(tmp_path / "out" / "estimates.csv")[:, 0].tolist() == [2.048, 4.096]

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


class TestHugeJsonIntegers:
    @pytest.mark.parametrize(
        "digits",
        ["1" + "0" * 400, "1" * 5000],
        ids=["beyond-the-float-range", "over-the-int-digit-limit"],
    )
    @pytest.mark.parametrize("kind", ["config", "environment", "observations"])
    def test_is_a_domain_error_naming_the_file(self, tiny_setup, tmp_path, kind, digits):
        # float() overflows on the first, and json.loads refuses the second
        root, cfg_path, cfg = tiny_setup
        bad = tmp_path / "bad.json"
        if kind == "environment":
            doc = json.loads(ENV_FILE.read_text())
            doc["ssp_knots"][1][1] = 0
            bad.write_text(json.dumps(doc).replace(", 0]", f", {digits}]", 1))
            args, prefix = ("build-grid", "--env", bad, "--out", tmp_path / "g.bin", "--nr", 5, "--nd", 5), f"{bad}: "
        elif kind == "config":
            bad.write_text(json.dumps(dict(cfg, model={"mu_fa": 0})).replace('"mu_fa": 0', f'"mu_fa": {digits}'))
            args, prefix = ("track", "--config", bad), f"{bad}: "
        else:
            bad.write_text(f'{{"t_index": 0, "time_s": 0.0, "doas": []}}\n{{"t_index": 1, "time_s": {digits}, "doas": []}}\n')
            p = tmp_path / "c.json"
            p.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"), observations_file=str(bad))))
            args, prefix = ("track", "--config", p), f"{bad}:2: "
        res = run_cli(*args)
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: {prefix}"), res.stderr
        assert "Traceback" not in res.stderr


GRID_HEADER = 56  # bytes: magic, version, roi and counts
GRID_VALUES = 6 * 5 * 4


def small_run(root, wg):
    """Under ``root``, a 6 x 5 grid file, a config that simulates and tracks at J = 100 over 10 epochs on
    it, and the observations file that both commands use, as simulated on that grid."""
    grid_file, cfg_path, obs_file = root / "grid.bin", root / "run.json", root / "out" / "observations.jsonl"
    sio.write_grid(grid_file, build_doa_grid(wg, (300.0, 1200.0, 30.0, 150.0), 6, 5))
    cfg = {
        "grid_file": str(grid_file),
        "output_dir": str(root / "out"),
        "J": 100,
        "prior": {"roi": [300.0, 1200.0, 30.0, 150.0]},
        "scenario": {**SCENARIO, "initial_range_m": 1100.0, "duration_s": 10 * MotionParams().step_s},
    }
    cfg_path.write_text(json.dumps(cfg))
    assert swfocal.cli.main(["simulate", "--config", str(cfg_path)]) == 0
    return grid_file, cfg_path, obs_file


@pytest.fixture(scope="module")
def grid_fuzz_setup(tmp_path_factory, coastal_wg):
    """A small run and the bytes of its grid and observations files."""
    grid_file, cfg_path, obs_file = small_run(tmp_path_factory.mktemp("grid-fuzz"), coastal_wg)
    return grid_file, cfg_path, obs_file, grid_file.read_bytes(), obs_file.read_bytes()


@settings(
    derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    change=st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, GRID_HEADER + 8 * GRID_VALUES - 1)),
        st.tuples(st.just("flip"), st.tuples(st.integers(0, GRID_HEADER - 1), st.integers(0, 7))),
        st.tuples(
            st.just("value"),
            st.tuples(
                st.integers(0, GRID_VALUES - 1),
                st.sampled_from([1e300, -1e300, np.inf, -np.inf, np.nan, 5e-324, 90.5, -90.5]),
            ),
        ),
    )
)
def test_a_changed_grid_file_exits_0_or_1_with_one_error_line(grid_fuzz_setup, capsys, change):
    # a grid file truncated, with one header bit flipped or with one value
    # replaced: simulate and track run or refuse it in one line, and no
    # exception or numpy warning escapes
    grid_file, cfg_path, obs_file, raw, observations = grid_fuzz_setup
    raw = bytearray(raw)
    how, at = change
    if how == "truncate":
        del raw[at:]
    elif how == "flip":
        raw[at[0]] ^= 1 << at[1]
    else:
        raw[GRID_HEADER + 8 * at[0] : GRID_HEADER + 8 * at[0] + 8] = struct.pack("<d", at[1])
    grid_file.write_bytes(raw)
    # track reads what simulate wrote, or the unchanged grid's observations if it refused
    obs_file.write_bytes(observations)
    for command in ("simulate", "track"):
        code = swfocal.cli.main([command, "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert one_outcome(code, err), (command, code, err)


CSV_TOKENS = [b"nan", b"inf", b"1e400", b"1e308", b"-0", b"", b'"', b"1,2", b"\x00", b"\xff", b"true"]
CSV_ROWS = 5  # epochs in each of the two files


@pytest.fixture(scope="module")
def csv_fuzz_setup(tmp_path_factory):
    """A truth CSV and an estimates CSV on its times, and the bytes of both."""
    root = tmp_path_factory.mktemp("csv-fuzz")
    files = {"t": root / "t.csv", "e": root / "e.csv"}
    rows = [(i * 2.048, 1000.0 - 3.0 * i, 60.0 + i, -2.5) for i in range(CSV_ROWS)]
    sio.write_track_csv(files["t"], rows)
    sio.write_estimates_csv(files["e"], [(t, r + 5.0, d - 1.0, s, 100.0) for t, r, d, s in rows])
    return files, {name: path.read_bytes() for name, path in files.items()}


@settings(
    derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    which=st.sampled_from(["t", "e"]),
    change=st.one_of(
        # line 0 is the header
        st.tuples(st.just("cell"), st.tuples(st.integers(0, CSV_ROWS), st.integers(0, 4), st.sampled_from(CSV_TOKENS))),
        st.tuples(st.just("drop"), st.integers(0, CSV_ROWS)),
        st.tuples(st.just("add"), st.integers(0, CSV_ROWS)),
        st.tuples(st.just("cut"), st.integers(0, 10**6)),
    ),
)
def test_a_changed_csv_file_exits_0_or_1_with_one_error_line(csv_fuzz_setup, tmp_path, capsys, which, change):
    # a truth or estimates CSV with one cell or header name replaced by a
    # drawn token, one row a column short or long, or cut at a drawn byte:
    # evaluate reports on it or refuses it in one line that names a file,
    # and no exception or numpy warning escapes
    files, raws = csv_fuzz_setup
    for name, raw in raws.items():
        files[name].write_bytes(raw)
    lines = raws[which].split(b"\n")
    how, at = change
    if how == "cell":
        line, col, token = at
        cells = lines[line].split(b",")
        cells[col % len(cells)] = token
        lines[line] = b",".join(cells)
    elif how == "drop":
        lines[at] = lines[at].rpartition(b",")[0]
    elif how == "add":
        lines[at] += b",1.0"
    raw = b"\n".join(lines)
    files[which].write_bytes(raw[: at % len(raw)] if how == "cut" else raw)
    argv = ["evaluate", "--estimates", str(files["e"]), "--truth", str(files["t"]), "--out", str(tmp_path / "r.json")]
    code = swfocal.cli.main(argv)
    err = capsys.readouterr().err
    assert one_outcome(code, err, (f"error: {files['t']}:", f"error: {files['e']}:")), (which, change, code, err)


def json_paths(doc, at=()):
    """Every value's path in ``doc``, containers included, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    return [at] * bool(at) + [p for key, v in items for p in json_paths(v, (*at, key))]


# values a changed JSON file takes: huge, negative, non-integral and subnormal
# numbers, NaN and Infinity tokens, booleans, strings, null and nested lists
JSON_VALUES = [
    1e308, -1e308, 1e300, 10**30, -1, -2.5, 0.5, 2.5, 5e-324, 1e-310, 0,
    float("nan"), float("inf"), -float("inf"), True, False, "", "x", "stochastic", None, [], [1e308], [[0.5, 2.0]],
]


def json_changes(doc, new_keys):
    """Draws of one change to JSON ``doc``: a value at one of its paths, or at a key path of ``new_keys``,
    set to one of ``JSON_VALUES``; a key dropped; or the text cut at a drawn byte."""
    paths = json_paths(doc)
    return st.one_of(
        st.tuples(st.just("set"), st.tuples(st.sampled_from(paths + new_keys), st.sampled_from(JSON_VALUES))),
        st.tuples(st.just("drop"), st.sampled_from([p for p in paths if isinstance(p[-1], str)])),
        st.tuples(st.just("cut"), st.integers(0, 10**6)),
    )


def changed_json(doc, change, indent=None) -> str:
    """The text of JSON ``doc`` with one change of ``json_changes`` made; a value set at path ``()`` is the
    whole new document."""
    how, at = change
    if how == "set" and not at[0]:
        doc = at[1]
    elif how != "cut":
        doc = json.loads(json.dumps(doc))
        path = at if how == "drop" else at[0]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = at[1]
    text = json.dumps(doc, indent=indent)
    return text[: at % len(text)] if how == "cut" else text


def one_outcome(code, err, prefix="error: ") -> bool:
    """Whether a command exited 0 with nothing on stderr, or 1 with one line that starts with ``prefix``."""
    return (code, err) == (0, "") or (code == 1 and err.startswith(prefix) and err.count("\n") == 1)


RUN = json.loads((REPO / "configs" / "default_run.json").read_text())
# the shipped run at J = 100, its scenario's times scaled down to ten epochs
_SCALE = 10 * RUN["motion"]["step_s"] / RUN["scenario"]["duration_s"]
SMALL_RUN = {**RUN, "J": 100, "scenario": {
    **RUN["scenario"],
    "duration_s": RUN["scenario"]["duration_s"] * _SCALE,
    "dropouts": [[a * _SCALE, b * _SCALE] for a, b in RUN["scenario"]["dropouts"]],
}}
# a key added at the top or to a block: two the run may name and two it may not
RUN_NEW_KEYS = [
    (*block, key) for block in [()] + [(k,) for k, v in RUN.items() if isinstance(v, dict)]
    for key in ("observations_file", "truth_file", "step_s", "extra")
]


@pytest.fixture(scope="module")
def config_fuzz_setup(tmp_path_factory, coastal_wg):
    """The bytes of an 8 x 6 grid over the shipped run's region of interest."""
    root = tmp_path_factory.mktemp("config-fuzz")
    sio.write_grid(root / "grid.bin", build_doa_grid(coastal_wg, tuple(RUN["prior"]["roi"]), 8, 6))
    return root, (root / "grid.bin").read_bytes()


@settings(
    derandomize=True, max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(change=json_changes(SMALL_RUN, RUN_NEW_KEYS))
# derandomize seeds a test from a digest of its source; this is that digest for the test's form before
# the JSON helpers were shared, so it draws the same examples as that form did
@seed(0xE1E1C634142D283C14BAADDCAD3FDF60B615EFBA800D78513283DCC8AB1F155A9C0D553125BF6C2D5E408236EDD63546)
@example(change=("set", (("prior", "speed_std"), 1e308)))
@example(change=("set", (("model", "sigma_deg"), [1e308] * 4)))
@example(change=("set", (("scenario", "duration_s"), 1e308)))
@example(change=("set", (("scenario", "initial_speed_mps"), 1e308)))
@example(change=("set", (("model", "sigma_deg", 0), 1e308)))
@example(change=("set", (("motion", "step_s"), 1e308)))  # the first step meets inf - inf
def test_a_changed_config_exits_0_or_1_with_one_error_line(config_fuzz_setup, monkeypatch, capsys, change):
    # the shipped run's config with one value replaced by a drawn one, a key
    # dropped or added, or cut at a drawn byte: simulate, then track on what
    # it wrote, run or refuse it in one line, and no exception or numpy
    # warning escapes.  Each example runs in a directory of its own, where
    # the config's relative paths and any drawn ones land
    root, grid = config_fuzz_setup
    work = Path(tempfile.mkdtemp(dir=root))
    (work / "out").mkdir()
    (work / "out" / "grid.bin").write_bytes(grid)
    monkeypatch.chdir(work)
    (work / "run.json").write_text(changed_json(SMALL_RUN, change, indent=1))
    for command in ("simulate", "track"):
        code = swfocal.cli.main([command, "--config", "run.json"])
        err = capsys.readouterr().err
        assert one_outcome(code, err), (command, code, err)


ENV = json.loads(ENV_FILE.read_text())


def deep_env(bottom):
    """The coastal environment with its bottom, and its last knot, at ``bottom`` m."""
    return {**ENV, "ssp_knots": [*ENV["ssp_knots"][:-1], [bottom, ENV["ssp_knots"][-1][1]]], "bottom_depth_m": bottom}


@pytest.fixture(scope="module")
def env_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("env-fuzz")


@settings(
    derandomize=True, max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(change=json_changes(ENV, [("extra",), ("ssp",)]))
@example(change=("set", (("ssp_knots", 3, 1), 1e308)))
@example(change=("set", (("ssp_knots",), [*ENV["ssp_knots"][:3], [30.0, 1e200], [40.0, 1.1e200], *ENV["ssp_knots"][5:]])))
@example(change=("set", (("ssp_knots",), [[z, c * 1e200] for z, c in ENV["ssp_knots"]])))  # the coastal geometry
@example(change=("set", ((), deep_env(1e308))))
@example(change=("set", ((), deep_env(1e100))))
def test_a_changed_environment_exits_0_or_1_with_one_error_line(env_fuzz_dir, capsys, change):
    # the coastal environment with one value replaced by a drawn one, a key
    # dropped or added, or cut at a drawn byte: build-grid builds a small
    # grid on it or refuses it in one line, and no exception or numpy
    # warning escapes.  The examples pin the faults of its parent, where
    # the draws reach the first: a speed of 1e308, neighbouring speeds of
    # 1e200 and 1.1e200, every speed times 1e200 and a bottom of 1e308 m
    # overflowed, and a bottom of 1e100 m divided by zero
    env, out = env_fuzz_dir / "env.json", env_fuzz_dir / "g.bin"
    env.write_text(changed_json(ENV, change, indent=1))
    code = swfocal.cli.main(["build-grid", "--env", str(env), "--out", str(out), "--nr", "8", "--nd", "6"])
    captured = capsys.readouterr()
    assert one_outcome(code, captured.err), (code, captured.err)


@pytest.fixture(scope="module")
def obs_fuzz_setup(tmp_path_factory, coastal_wg):
    """A small run's config, its observations file and that file's lines as simulated."""
    _, cfg_path, obs_file = small_run(tmp_path_factory.mktemp("obs-fuzz"), coastal_wg)
    return cfg_path, obs_file, obs_file.read_text().splitlines(keepends=True)


@settings(
    derandomize=True, max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_a_changed_observation_file_exits_0_or_1_with_one_error_line(obs_fuzz_setup, capsys, data):
    # a simulated observations file with one line's record changed by a
    # drawn value, a key dropped or added, or the file cut inside that line:
    # track runs on it or refuses it in one line, and no exception or numpy
    # warning escapes
    cfg_path, obs_file, lines = obs_fuzz_setup
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    record = json.loads(lines[at])
    change = data.draw(json_changes(record, [("extra",)]), label="change")
    line = changed_json(record, change)
    obs_file.write_text("".join(lines[:at] + ([line] if change[0] == "cut" else [line + "\n", *lines[at + 1 :]])))
    code = swfocal.cli.main(["track", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert one_outcome(code, err), (at, change, code, err)
