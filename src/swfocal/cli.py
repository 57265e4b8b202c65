"""Command-line pipeline: build-grid, simulate, track, evaluate.

Runs are driven by a strict JSON configuration (unknown keys are
rejected so a config file fully determines a run).  ``simulate`` and
``track`` take ``--seed`` to override the config seed; identical
invocations produce byte-identical outputs.  Exit codes: 0 success,
1 domain error (bad file contents, filter degeneracy, missing inputs),
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from swfocal import io as sio
from swfocal.assoc import ModelParams, ObservationSet
from swfocal.grid import DoaGrid, PathKind, build_doa_grid
from swfocal.simulator import ScenarioConfig, generate_observations, generate_truth
from swfocal.tracking import DegeneracyError, MotionParams, PriorParams, run_tracker

__all__ = ["main", "RunConfig", "ConfigError", "load_config"]

KIND_SELECTIONS = {2: (PathKind.SB, PathKind.DP), 4: tuple(PathKind)}
DEFAULT_SIGMA = {2: (0.5, 0.5), 4: (0.5, 0.5, 2.0, 2.0)}
DEFAULT_MU_FA = {2: 4.0, 4: 2.0}
DEFAULT_ROI = (100.0, 3600.0, 10.0, 175.0)


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a simulate/track/evaluate run needs, fully explicit."""

    grid_file: str
    output_dir: str
    observations_file: str | None
    truth_file: str | None
    n_paths: int
    n_particles: int
    seed: int
    model: ModelParams
    motion: MotionParams
    prior: PriorParams
    scenario: ScenarioConfig

    def obs_path(self) -> Path:
        return Path(self.observations_file or Path(self.output_dir) / "observations.jsonl")

    def truth_path(self) -> Path:
        return Path(self.truth_file or Path(self.output_dir) / "truth.csv")


def _take(doc: dict, context: str, known: set[str]) -> None:
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _block(doc: dict, key: str, path, cls, skip: tuple[str, ...] = ()) -> dict:
    """Config block ``key``: keys named after the fields of ``cls``, except ``skip``."""
    block = dict(doc.get(key, {}))
    _take(block, f"{path}: {key}", {f.name for f in dataclasses.fields(cls)} - set(skip))
    return block


def _floats(block: dict) -> dict:
    """The keys a block sets, as floats; a key it leaves out keeps its dataclass default."""
    return {k: float(v) for k, v in block.items()}


def _integer(doc: dict, key: str, default: int, least: int, path) -> int:
    """``doc[key]`` as an int of at least ``least``; a float must be integral and a bool is no int."""
    v = doc.get(key, default)
    if (
        isinstance(v, bool)
        or not isinstance(v, (int, float))
        or (isinstance(v, float) and not v.is_integer())  # nan and inf too
        or v < least
    ):
        raise ConfigError(f"{path}: {key} must be an integer of at least {least}, got {v!r}")
    return int(v)


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _take(
        doc,
        str(path),
        {
            "grid_file",
            "output_dir",
            "observations_file",
            "truth_file",
            "K",
            "J",
            "seed",
            "model",
            "motion",
            "prior",
            "scenario",
        },
    )
    if "grid_file" not in doc:
        raise ConfigError(f"{path}: missing required key 'grid_file'")

    try:
        n_paths = _integer(doc, "K", 4, 0, path)
        if n_paths not in KIND_SELECTIONS:
            raise ConfigError(f"{path}: K must be one of {sorted(KIND_SELECTIONS)}")

        model_doc = _block(doc, "model", path, ModelParams, skip=("n_paths", "fa_support_deg"))
        model = ModelParams(
            n_paths=n_paths,
            sigma_deg=tuple(model_doc.pop("sigma_deg", DEFAULT_SIGMA[n_paths])),
            mu_fa=float(model_doc.pop("mu_fa", DEFAULT_MU_FA[n_paths])),
            **_floats(model_doc),
        )

        motion = MotionParams(**_floats(_block(doc, "motion", path, MotionParams)))
        prior_doc = _block(doc, "prior", path, PriorParams)
        prior = PriorParams(
            roi=tuple(float(v) for v in prior_doc.pop("roi", DEFAULT_ROI)), **_floats(prior_doc)
        )

        scen_doc = _block(doc, "scenario", path, ScenarioConfig, skip=("roi", "motion"))
        given = {"truth_motion": str(scen_doc["truth_motion"])} if "truth_motion" in scen_doc else {}
        scenario = ScenarioConfig(
            initial_range_m=float(scen_doc.get("initial_range_m", 3500.0)),
            initial_depth_m=float(scen_doc.get("initial_depth_m", 60.0)),
            initial_speed_mps=float(scen_doc.get("initial_speed_mps", -2.5)),
            duration_s=float(scen_doc.get("duration_s", 1200.0)),
            dropouts=tuple(
                (float(a), float(b)) for a, b in scen_doc.get("dropouts", [[420.0, 494.0], [660.0, 734.0]])
            ),
            roi=prior.roi,
            motion=motion,
            **given,
        )

        return RunConfig(
            grid_file=str(doc["grid_file"]),
            output_dir=str(doc.get("output_dir", "out")),
            observations_file=doc.get("observations_file"),
            truth_file=doc.get("truth_file"),
            n_paths=n_paths,
            n_particles=_integer(doc, "J", 10_000, 1, path),
            seed=_integer(doc, "seed", 0, 0, path),
            model=model,
            motion=motion,
            prior=prior,
            scenario=scenario,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def cmd_build_grid(args) -> int:
    wg = sio.read_environment(args.env)
    kinds = tuple(PathKind[name] for name in args.kinds)
    grid = build_doa_grid(wg, tuple(args.roi), args.nr, args.nd, kinds)
    sio.write_grid(args.out, grid)
    for kind, frac in grid.coverage().items():
        print(f"{kind.name}: {frac:.4f} of grid points geometrically impossible")
    print(f"grid written to {args.out} ({grid.n_r} x {grid.n_d} x {len(grid.kinds)})")
    return 0


def cmd_simulate(args) -> int:
    cfg, grid = _load_run(args)
    truth = generate_truth(cfg.scenario, seed=cfg.seed)
    obs = generate_observations(truth, grid, cfg.model, seed=cfg.seed)

    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    sio.write_track_csv(
        cfg.truth_path(),
        zip(truth.times_s, truth.states[:, 0], truth.states[:, 1], truth.states[:, 2]),
    )
    records = [
        (i, t, o.z)
        for i, (t, o) in enumerate(zip(truth.times_s, obs))
        if not cfg.scenario.in_dropout(float(t))
    ]
    sio.write_observations(cfg.obs_path(), records)
    print(
        f"simulated {truth.times_s.size} epochs ({len(records)} with data) "
        f"-> {cfg.truth_path()}, {cfg.obs_path()}"
    )
    return 0


def cmd_track(args) -> int:
    cfg, grid = _load_run(args)
    records = sio.read_observations(cfg.obs_path())
    stream = ((time_s, ObservationSet(z=doas)) for _, time_s, doas in records)
    failure = None
    try:
        estimates = run_tracker(
            grid,
            stream,
            cfg.model,
            cfg.motion,
            cfg.prior,
            J=cfg.n_particles,
            seed=cfg.seed,
        )
    except DegeneracyError as e:
        # a lost track still leaves the estimates made before it
        estimates, failure = e.estimates, e
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    out = Path(cfg.output_dir) / "estimates.csv"
    sio.write_estimates_csv(
        out,
        (
            (t, est.range_m, est.depth_m, est.speed_mps, ess)
            for t, est, ess in estimates
        ),
    )
    if failure is not None:
        raise failure
    print(f"tracked {len(estimates)} epochs -> {out}")
    return 0


def evaluate_run(estimates: np.ndarray, truth: np.ndarray) -> dict:
    """Errors of one estimate sequence against the truth, joined on time."""
    t_truth = truth[:, 0]
    if not t_truth.size:
        raise ValueError("the truth has no epochs")
    idx = np.searchsorted(t_truth, estimates[:, 0])
    idx = np.clip(idx, 0, t_truth.size - 1)
    matched = np.abs(t_truth[idx] - estimates[:, 0]) < 1e-6
    if not np.any(matched):
        raise ValueError("no estimate epochs match the truth timeline")
    e = estimates[matched]
    t = truth[idx[matched]]
    range_err = e[:, 1] - t[:, 1]
    depth_err = e[:, 2] - t[:, 2]
    half = e.shape[0] // 2

    def stats(re, de):
        return {
            "rmse_range_m": float(np.sqrt(np.mean(re**2))),
            "rmse_depth_m": float(np.sqrt(np.mean(de**2))),
            "median_abs_range_error_m": float(np.median(np.abs(re))),
            "median_abs_depth_error_m": float(np.median(np.abs(de))),
        }

    return {
        "n_epochs": int(e.shape[0]),
        **stats(range_err, depth_err),
        "final_half": stats(range_err[half:], depth_err[half:]),
        "per_epoch": [
            {"time_s": float(tt), "range_error_m": float(re), "depth_error_m": float(de)}
            for tt, re, de in zip(e[:, 0], range_err, depth_err)
        ],
    }


def cmd_evaluate(args) -> int:
    truth = sio.read_track_csv(args.truth)
    report = {"truth_file": str(args.truth), "runs": []}
    for est_path in args.estimates:
        est = sio.read_estimates_csv(est_path)
        run = {"estimates_file": str(est_path)}
        run.update(evaluate_run(est, truth))
        report["runs"].append(run)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
        print(f"evaluation written to {args.out}")
    else:
        print(text)
    return 0


def _load_run(args) -> tuple[RunConfig, DoaGrid]:
    """The config with the command line's overrides, and its grid's selected kinds."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg, sio.read_grid(cfg.grid_file).select_kinds(KIND_SELECTIONS[cfg.n_paths])


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="swfocal",
        description="Shallow-water source localization: DOA grids, synthetic scenarios, particle tracking.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def positive_grid_count(v: str) -> int:
        n = int(v)
        if n < 2:
            raise argparse.ArgumentTypeError("grid needs at least 2 points per axis")
        return n

    def nonnegative_seed(v: str) -> int:
        n = int(v)
        if n < 0:
            raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
        return n

    b = sub.add_parser("build-grid", help="precompute the DOA lookup grid")
    b.add_argument("--env", required=True, help="environment JSON file")
    b.add_argument("--out", required=True, help="output grid file")
    b.add_argument(
        "--roi",
        nargs=4,
        type=float,
        default=list(DEFAULT_ROI),
        metavar=("RMIN", "RMAX", "DMIN", "DMAX"),
        help="region of interest in meters",
    )
    b.add_argument("--nr", type=positive_grid_count, default=2400, help="range grid points")
    b.add_argument("--nd", type=positive_grid_count, default=165, help="depth grid points")
    b.add_argument(
        "--kinds",
        nargs="+",
        default=[k.name for k in PathKind],
        choices=[k.name for k in PathKind],
        help="propagation paths to tabulate",
    )
    b.set_defaults(func=cmd_build_grid)

    for name, fn, desc in (
        ("simulate", cmd_simulate, "generate a truth track and synthetic DOA observations"),
        ("track", cmd_track, "run the particle tracker over an observation file"),
    ):
        s = sub.add_parser(name, help=desc)
        s.add_argument("--config", required=True, help="run configuration JSON")
        s.add_argument("--seed", type=nonnegative_seed, default=None, help="override the config seed")
        s.add_argument("--out", default=None, help="override the config output directory")
        s.set_defaults(func=fn)

    e = sub.add_parser("evaluate", help="compare estimate files against a truth track")
    e.add_argument("--estimates", action="append", required=True, help="estimates CSV (repeatable)")
    e.add_argument("--truth", required=True, help="truth CSV")
    e.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
