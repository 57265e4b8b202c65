"""Command-line pipeline: build-grid, simulate, track, evaluate.

``build-grid`` tabulates all four paths; a run with ``K = 2`` tracks on
the SB and DP layers of that grid.  Runs are driven by a strict JSON
configuration, read with ``io``'s JSON rules: unknown keys are rejected
so a config file fully determines a run, every block is a JSON object and
numeric values must be JSON numbers, ``prior.roi``, ``model.sigma_deg``
and ``scenario.dropouts`` lists of the shape ``CONFIG_KEYS`` gives
``io.number``.  Only ``simulate`` reads the ``scenario`` block, and only
from the file.  ``simulate`` and ``track`` take ``--seed`` to override the
config seed; identical invocations produce byte-identical outputs.  They
meet the config with its grid in ``_load_run``: ``K`` must not exceed the
grid's layers and ``prior.roi`` must lie inside the grid's region of
interest.  A refused input is a ``ValueError`` and prints one ``error:``
line in ``io``'s form, ``<file>[:<line>]: <key>: <rule>, got <value>``; a
file that cannot be opened or written prints ``error: <file>: <reason>``.
A command whose arrays would not fit in physical memory is refused before
it allocates them, and each command checks only its own: ``build-grid``
the grid, ``simulate`` the scenario's epochs and ``track`` its particles at
the largest record.
Exit codes: 0 success, 1 domain error (bad file contents, a run beyond
physical memory, filter degeneracy, missing inputs), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from swfocal import io as sio
from swfocal.assoc import ModelParams, ObservationSet
from swfocal.environment import PathKind
from swfocal.grid import DoaGrid, build_doa_grid
from swfocal.simulator import ScenarioConfig, generate_observations, generate_truth
from swfocal.tracking import DegeneracyError, MotionParams, PriorParams, run_tracker

__all__ = ["main", "RunConfig", "load_config"]

DEFAULT_SIGMA = (0.5, 0.5, 2.0, 2.0)  # per path; K = 2 takes the first two
DEFAULT_MU_FA = {2: 4.0, 4: 2.0}
DEFAULT_ROI = (100.0, 3600.0, 10.0, 175.0)
SCENARIO_REQUIRED = ("initial_range_m", "initial_depth_m", "initial_speed_mps", "duration_s")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a simulate/track/evaluate run needs, fully explicit."""

    grid_file: str
    output_dir: str
    observations_file: str | None
    truth_file: str | None
    n_particles: int
    seed: int
    model: ModelParams
    motion: MotionParams
    prior: PriorParams
    scenario: ScenarioConfig | None  # only ``simulate`` reads it

    def obs_path(self) -> Path:
        return Path(self.observations_file or Path(self.output_dir) / "observations.jsonl")

    def truth_path(self) -> Path:
        return Path(self.truth_file or Path(self.output_dir) / "truth.csv")


def _block(cls, skip=(), required=(), **read):
    """Reader of a config block: keys named after the fields of ``cls`` except ``skip``, JSON numbers
    unless ``read`` names another reader, with every key of ``required``."""
    read = {**dict.fromkeys({f.name for f in dataclasses.fields(cls)} - set(skip), sio.number), **read}
    return lambda v, key: sio.json_object(v, key, read, required)


CONFIG_KEYS = {
    **dict.fromkeys(("grid_file", "output_dir", "observations_file", "truth_file"), sio.string),
    "K": sio.integer,
    "J": lambda v, key: sio.integer(v, key, least=1),
    "seed": sio.integer,
    "model": _block(ModelParams, skip=("n_paths",), sigma_deg=lambda v, key: sio.number(v, key, (None,))),
    "motion": _block(MotionParams),
    "prior": _block(PriorParams, roi=lambda v, key: sio.number(v, key, (4,))),
    "scenario": _block(
        ScenarioConfig, skip=("roi", "motion"), required=SCENARIO_REQUIRED, truth_motion=sio.string,
        dropouts=lambda v, key: sio.number(v, key, (None, 2)),
    ),
}


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_beyond_memory(nbytes, subject: str) -> None:
    """Refuse ``nbytes`` beyond physical memory; a float, ``inf`` included, is compared, not converted."""
    if nbytes > _physical_memory():
        raise ValueError(f"{subject} needs {nbytes} bytes, more than this machine's physical memory")


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Sizes are not checked here: each command refuses the arrays it would
    allocate (``_refuse_beyond_memory``).
    """
    doc = sio.read_json(path)
    try:
        doc = sio.json_object(doc, "config", CONFIG_KEYS, required=("grid_file",))
        n_paths = doc.get("K", 4)
        if n_paths not in DEFAULT_MU_FA:
            raise ValueError(f"K: must be one of {sorted(DEFAULT_MU_FA)}, got {n_paths}")
        given = {"sigma_deg": DEFAULT_SIGMA[:n_paths], "mu_fa": DEFAULT_MU_FA[n_paths], **doc.get("model", {})}
        model = ModelParams(n_paths=n_paths, **given)
        motion = MotionParams(**doc.get("motion", {}))
        prior = PriorParams(**{"roi": DEFAULT_ROI, **doc.get("prior", {})})
        if "scenario" in doc:
            doc["scenario"] = ScenarioConfig(**doc["scenario"], roi=prior.roi, motion=motion)
        return RunConfig(
            grid_file=doc["grid_file"],
            output_dir=doc.get("output_dir", "out"),
            observations_file=doc.get("observations_file"),
            truth_file=doc.get("truth_file"),
            n_particles=doc.get("J", 10_000),
            seed=doc.get("seed", 0),
            model=model,
            motion=motion,
            prior=prior,
            scenario=doc.get("scenario"),
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def cmd_build_grid(args) -> int:
    # the values, refused before the environment is read
    _refuse_beyond_memory(8 * len(PathKind) * args.nr * args.nd, f"a {args.nr} x {args.nd} grid")
    wg = sio.read_environment(args.env)
    grid = build_doa_grid(wg, tuple(args.roi), args.nr, args.nd)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    sio.write_grid(args.out, grid)
    for kind, frac in grid.coverage().items():
        print(f"{kind.name}: {frac:.4f} of grid points geometrically impossible")
    print(f"grid written to {args.out} ({grid.n_r} x {grid.n_d} x {len(grid.kinds)})")
    return 0


def cmd_simulate(args) -> int:
    cfg, grid = _load_run(args)
    if cfg.scenario is None:
        raise ValueError(f"{args.config}: config: missing keys ['scenario'], which simulate needs")
    # per epoch the truth's time and state, and the lookup's (4, K) corners
    # and K angles; counted in Python floats, where a huge count is inf, not
    # an error or a warning
    duration, step, K = cfg.scenario.duration_s, cfg.motion.step_s, cfg.model.n_paths
    _refuse_beyond_memory(
        8 * (4 + 5 * K) * float(np.ceil(duration / step)),
        f"{args.config}: duration_s = {duration} s in steps of {step} s at K = {K}",
    )
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
    # per particle its state and weight, twice across the motion step, the
    # lookup's (4, K) corners, K angles and K detection probabilities, and
    # the association DP's (K + 1, M + 1) state and M K prefix at the
    # largest record, M angles
    M, K, J = max((doas.size for *_, doas in records), default=0), cfg.model.n_paths, cfg.n_particles
    _refuse_beyond_memory(
        8 * J * (8 + 6 * K + (K + 1) * (M + 1) + M * K),
        f"{args.config}: J = {J} particles at K = {K} over records of up to {M} angles in {cfg.obs_path()}",
    )
    stream = ((time_s, ObservationSet(z=doas)) for _, time_s, doas in records)
    failure = None
    try:
        estimates = run_tracker(grid, stream, cfg.model, cfg.motion, cfg.prior, J=J, seed=cfg.seed)
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


def evaluate_run(estimates: np.ndarray, truth: np.ndarray, name: str = "estimates", truth_name: str = "truth") -> dict:
    """Errors of one estimate sequence against the truth, joined on time.

    The join bisects the truth times, which must be finite and strictly
    increasing, as ``read_track_csv`` and ``GroundTruthTrack`` hold them.
    An empty truth raises ``ValueError`` naming ``truth_name``; estimates
    with no time on the truth's, or errors whose statistics overflow the
    float range, raise it naming ``name``.
    """
    t_truth = truth[:, 0]
    if not t_truth.size:
        raise ValueError(f"{truth_name}: the truth has no epochs")
    idx = np.searchsorted(t_truth, estimates[:, 0])
    idx = np.clip(idx, 0, t_truth.size - 1)
    matched = np.abs(t_truth[idx] - estimates[:, 0]) < 1e-6
    if not np.any(matched):
        raise ValueError(f"{name}: no estimate epochs match the truth timeline")
    e = estimates[matched]
    t = truth[idx[matched]]
    half = e.shape[0] // 2

    def stats(re, de):
        return {
            "rmse_range_m": float(np.sqrt(np.mean(re**2))),
            "rmse_depth_m": float(np.sqrt(np.mean(de**2))),
            "median_abs_range_error_m": float(np.median(np.abs(re))),
            "median_abs_depth_error_m": float(np.median(np.abs(de))),
        }

    # an error, or its square, beyond the float range reads inf, and so does
    # every statistic of a run that holds it: refused below
    with np.errstate(over="ignore"):
        range_err = e[:, 1] - t[:, 1]
        depth_err = e[:, 2] - t[:, 2]
        whole, final = stats(range_err, depth_err), stats(range_err[half:], depth_err[half:])
    if not np.isfinite([*whole.values(), *final.values()]).all():
        raise ValueError(f"{name}: the errors against the truth overflow the float range")
    return {
        "n_epochs": int(e.shape[0]),
        **whole,
        "final_half": final,
        "per_epoch": [
            {"time_s": float(tt), "range_error_m": float(re), "depth_error_m": float(de)}
            for tt, re, de in zip(e[:, 0], range_err, depth_err)
        ],
    }


def cmd_evaluate(args) -> int:
    truth = sio.read_track_csv(args.truth)
    report = {"truth_file": str(args.truth), "runs": []}
    for est_path in args.estimates:
        run = evaluate_run(sio.read_estimates_csv(est_path), truth, str(est_path), str(args.truth))
        report["runs"].append({"estimates_file": str(est_path), **run})
    text = json.dumps(report, indent=2, allow_nan=False)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
        print(f"evaluation written to {args.out}")
    else:
        print(text)
    return 0


def _load_run(args) -> tuple[RunConfig, DoaGrid]:
    """The config with the command line's overrides, and the first K path layers of its grid.

    The config meets its grid here alone: the grid must hold K layers, and
    its region of interest ``prior.roi``, where the particles start and the
    simulated truth stays.
    """
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    grid = sio.read_grid(cfg.grid_file)
    K, (r0, r1, d0, d1), (p0, p1, q0, q1) = cfg.model.n_paths, grid.roi, cfg.prior.roi
    if K > len(grid.kinds):
        raise ValueError(f"{args.config}: K: must be at most the {len(grid.kinds)} layers of {cfg.grid_file}, got {K}")
    if not (r0 <= p0 and p1 <= r1 and d0 <= q0 and q1 <= d1):
        raise ValueError(
            f"{args.config}: roi: must lie inside the region of interest of {cfg.grid_file}, "
            f"{list(grid.roi)}, got {list(cfg.prior.roi)}"
        )
    return cfg, grid.select_kinds(tuple(PathKind)[:K])


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
        if isinstance(e, OSError) and e.filename is not None:
            e = f"{e.filename}: {e.strerror}"
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
