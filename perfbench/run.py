"""swfocal benchmark: one workload, one process, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload track_k4 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, in
host-normalised seconds (see ``hostspeed.py``).
``--trace 1`` runs one operation with the public swfocal functions
wrapped in spans, replays its tracking run unwrapped, checks that the
estimates are bit-identical, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced).  Metric names and units come from
``BENCHMARK.json``; perfbench/README.md explains the workloads.

The program is imported from ``src/`` of the current directory and
nowhere else, so a directory without the sources exits non-zero.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS thread pools are sized when numpy loads, so pin them first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from measure import machine_facts, percentile  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402

ENV_FILE = "configs/coastal_216m_env.json"
RUN_CONFIG = "configs/default_run.json"
FULL_ROI = (100.0, 2500.0, 10.0, 175.0)
FULL_SHAPE = (2400, 165)   # 1 m cells: the acceptance and ROADMAP grid
README_SHAPE = (876, 56)   # the README's build-grid example
SETUP_REPEATS = 2          # setup_s and track_k4's build_s are medians of this many
IMPORT_REPEATS = 5         # fresh interpreters timed for the import part of setup_s
N_STREAMS = 4              # observation streams generated per setup
MIN_EPOCHS = 1000          # p99 needs ten epochs beyond it
READ_SIDE_J = 1000         # grid_full tracks with few particles on the big grid
READ_SIDE_EPOCHS = 5000    # ... and longer, so its epoch metrics span more time
N_CHECK_POINTS = 8         # off-grid points checked against find_eigenrays
CHECK_MAX_ERR_DEG = 0.1
MAX_OPS = 64
MAX_TIMED_S = 100.0        # keeps a run whose operations keep failing under 180 s
WORKLOADS = ("grid_full", "track_k4")
WALL = HostSpeed(sample=False)  # plain wall time: the traced run, and the raw side of an untraced one
PROGRAM_MODULES = ("assoc", "cli", "environment", "grid", "io", "simulator", "tracking")


class WrongOutput(Exception):
    """An operation returned an output that failed the benchmark's check."""


def log(msg: str) -> None:
    print(f"[{time.perf_counter() - T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


def load_program(root: Path) -> SimpleNamespace:
    """Import swfocal from ``root/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "swfocal" / "__init__.py").is_file():
        raise SystemExit(f"error: no swfocal sources under {src}")
    for f in (ENV_FILE, RUN_CONFIG):
        if not (root / f).is_file():
            raise SystemExit(f"error: missing {f}")
    sys.path.insert(0, str(src))
    mods = {
        name: importlib.import_module(f"swfocal.{name}")
        for name in PROGRAM_MODULES
    }
    loaded = Path(mods["grid"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"error: swfocal was imported from {loaded}, not {src}")
    return SimpleNamespace(**mods)


def import_times(root: Path, hs) -> list[tuple[float, float, float]]:
    """Time fresh interpreters importing numpy and swfocal.

    Returns per interpreter its own import time and the ``hs.now()``
    interval around it, over which the host's speed is taken.  A single
    import, of a fraction of a second, varies with the host far more than
    a median of several does.
    """
    code = (
        "import time; t0 = time.perf_counter(); import sys, numpy; sys.path.insert(0, 'src'); "
        + "; ".join(f"import swfocal.{m}" for m in PROGRAM_MODULES)
        + "; print(time.perf_counter() - t0)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = hs.now()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, check=True, timeout=60
        ).stdout
        times.append((float(out), t0, hs.now()))
    return times


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def workload_spec(sw, name: str) -> SimpleNamespace:
    """Grid, scenario and particle count of one workload; both track with K = 4."""
    cfg = sw.cli.load_config(RUN_CONFIG)
    spec = SimpleNamespace(
        roi=cfg.prior.roi,
        shape=README_SHAPE,
        scenario=cfg.scenario,
        model=cfg.model,
        motion=cfg.motion,
        prior=cfg.prior,
        J=cfg.n_particles,
        min_epochs=MIN_EPOCHS,
    )
    if name == "grid_full":
        # the acceptance tracking scenario (criterion 5) inside the 1 m grid
        spec.roi = FULL_ROI
        spec.shape = FULL_SHAPE
        spec.scenario = dataclasses.replace(
            cfg.scenario, initial_range_m=2450.0, initial_speed_mps=-1.875, roi=FULL_ROI
        )
        spec.prior = dataclasses.replace(cfg.prior, roi=FULL_ROI)
        spec.J = READ_SIDE_J
        spec.min_epochs = READ_SIDE_EPOCHS
    return spec


def op_seeds(seed: int, k: int) -> tuple[int, int]:
    """(observation seed, filter seed) of operation ``k`` in a run."""
    obs, filt = np.random.SeedSequence([seed, k]).generate_state(2)
    return int(obs), int(filt)


# ---------------------------------------------------------------------------
# Pipeline steps, all through public swfocal functions
# ---------------------------------------------------------------------------


def build(sw, hs, wg, spec):
    """The grid and the ``hs.now()`` interval of its build."""
    t0 = hs.now()
    grid = sw.grid.build_doa_grid(wg, spec.roi, *spec.shape)
    return grid, (t0, hs.now())


def publish(sw, grid, spec, seed: int, workdir: Path) -> SimpleNamespace:
    """Round-trip the grid and ``N_STREAMS`` observation streams through files."""
    grid_file = workdir / "grid.bin"
    sw.io.write_grid(grid_file, grid)
    grid = sw.io.read_grid(grid_file)
    truth = sw.simulator.generate_truth(spec.scenario)
    streams = []
    for k in range(N_STREAMS):
        obs = sw.simulator.generate_observations(truth, grid, spec.model, seed=op_seeds(seed, k)[0])
        records = [
            (i, t, o.z)
            for i, (t, o) in enumerate(zip(truth.times_s, obs))
            if not spec.scenario.in_dropout(float(t))
        ]
        obs_file = workdir / f"obs{k}.jsonl"
        sw.io.write_observations(obs_file, records)
        streams.append(
            [(t, sw.assoc.ObservationSet(z=doas)) for _, t, doas in sw.io.read_observations(obs_file)]
        )
    return SimpleNamespace(
        grid=grid,
        grid_bytes=grid_file.stat().st_size,
        truth=np.column_stack([truth.times_s, truth.states]),
        streams=streams,
    )


def track_once(sw, hs, data, spec, k: int, seed: int) -> dict:
    """One tracking run, checked, with the ``hs.now()`` time of each epoch's start.

    ``ticks`` holds the start of every epoch and the end of the last one.
    """
    stream = data.streams[k % N_STREAMS]
    pulls: list[float] = []

    def timed():
        for item in stream:
            pulls.append(hs.now())
            yield item

    t0 = hs.now()
    est = sw.tracking.run_tracker(
        data.grid, timed(), spec.model, spec.motion, spec.prior, J=spec.J, seed=op_seeds(seed, k)[1]
    )
    t1 = hs.now()
    arr = np.array([(t, s.range_m, s.depth_m, s.speed_mps, ess) for t, s, ess in est]).reshape(-1, 5)
    if arr.shape[0] != len(stream):
        raise WrongOutput(f"{arr.shape[0]} estimates for {len(stream)} observation epochs")
    if not np.array_equal(arr[:, 0], [t for t, _ in stream]):
        raise WrongOutput("estimate times differ from observation times")
    if not np.all(np.isfinite(arr)):
        raise WrongOutput("non-finite estimate")
    if np.any(arr[:, 4] < 1.0) or np.any(arr[:, 4] > spec.J * (1 + 1e-9)):
        raise WrongOutput("effective sample size outside [1, J]")
    half = sw.cli.evaluate_run(arr, data.truth)["final_half"]
    return {
        "estimates": arr,
        "t0": t0,
        "ticks": np.array(pulls + [t1]),
        "range_err_m": half["median_abs_range_error_m"],
        "depth_err_m": half["median_abs_depth_error_m"],
    }


def check_points(spec, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 4])
    r0, r1, d0, d1 = spec.roi
    return np.column_stack(
        [rng.uniform(r0, r1, N_CHECK_POINTS), rng.uniform(d0, d1, N_CHECK_POINTS)]
    )


def eigenray_reference(sw, wg, points, kinds) -> np.ndarray:
    """Direct eigenray arrival angles at ``points``; nan where no ray exists."""
    ref = np.full((len(points), len(kinds)), np.nan)
    for i, (r, d) in enumerate(points):
        rays = sw.environment.find_eigenrays(wg, (float(r), float(d)))
        for j, kind in enumerate(kinds):
            if rays[kind] is not None:
                ref[i, j] = rays[kind].arrival_angle_deg
    return ref


def fidelity(interp: np.ndarray, ref: np.ndarray) -> tuple[float, int]:
    """Max |grid - direct| where both exist, and grid values with no ray."""
    both = ~np.isnan(interp) & ~np.isnan(ref)
    worst = float(np.max(np.abs(interp[both] - ref[both]), initial=0.0))
    return worst, int(np.sum(~np.isnan(interp) & np.isnan(ref)))


# ---------------------------------------------------------------------------
# One pass: setup, timed operations, checks
# ---------------------------------------------------------------------------


def budget_spent(n_done, elapsed, seconds, fixed_ops, enough=True) -> bool:
    """Whether a timed loop stops after ``n_done`` operations.

    With ``fixed_ops`` it stops after that many.  Otherwise it stops, once
    it has ``enough``, when one more operation of the mean length so far
    would overrun ``seconds``, and in any case at the hard limits.
    """
    if fixed_ops is not None:
        return n_done >= fixed_ops
    if n_done >= MAX_OPS or elapsed > MAX_TIMED_S:
        return True
    return enough and elapsed + elapsed / n_done > seconds


def run_pass(sw, hs, workload, seed, seconds, workdir, setup_repeats=SETUP_REPEATS, fixed_ops=None):
    """Set up, run the timed operations and check their outputs.

    Every timing is kept as an ``hs.now()`` interval, for ``end_to_end``
    to convert once sampling has ended.  ``fixed_ops`` replaces the time
    budget by that many grid builds and tracking runs, so that a traced
    pass can replay an untraced one.
    """
    spec = workload_spec(sw, workload)
    # ``failed`` counts operations that raised or returned a wrong output,
    # ``wrong`` all of them but a ``DegeneracyError``: a run is correct
    # when ``wrong`` stays 0
    res = SimpleNamespace(attempted=0, failed=0, wrong=0, failures=[], setups=[], builds=[], ops=[])

    res.wg, res.data = set_up(sw, hs, workload, spec, seed, workdir, res)
    res.points = check_points(spec, seed)

    if workload == "grid_full":
        grid = timed_builds(sw, hs, spec, res, seconds, fixed_ops)
        res.data = publish(sw, grid, spec, seed, workdir)
        seconds = 0.0  # the tracking pass stops once it has its epochs
    timed_tracking(sw, hs, spec, res, seed, seconds, fixed_ops)

    # the repeats come after the timed part, so that the medians sample the
    # host at both ends of the run rather than twice in the same moment
    for _ in range(setup_repeats - 1):
        set_up(sw, hs, workload, spec, seed, workdir, res)
    res.imports = import_times(Path.cwd(), hs)
    return res


def set_up(sw, hs, workload, spec, seed, workdir, res):
    """Read the environment and, on a tracking workload, build and publish the grid.

    Returns the environment and the published data (``None`` on
    ``grid_full``); the setup's and the build's intervals go to
    ``res.setups`` and ``res.builds``.
    """
    t0 = hs.now()
    wg = sw.io.read_environment(ENV_FILE)
    data = None
    if workload != "grid_full":
        grid, interval = build(sw, hs, wg, spec)
        res.builds.append(interval)
        data = publish(sw, grid, spec, seed, workdir)
    res.setups.append((t0, hs.now()))
    return wg, data


def timed_builds(sw, hs, spec, res, seconds, fixed_ops):
    """Build the grid until the budget is spent, then check every build."""
    interps = []
    t_start = time.perf_counter()
    while True:
        grid, interval = build(sw, hs, res.wg, spec)
        res.builds.append(interval)
        interps.append(sw.grid.interpolate_doa_many(grid, res.points))
        if budget_spent(len(res.builds), time.perf_counter() - t_start, seconds, fixed_ops):
            break
    log(f"{len(res.builds)} builds: {', '.join(f'{b - a:.2f}' for a, b in res.builds)} s wall")
    ref = eigenray_reference(sw, res.wg, res.points, grid.kinds)
    for interp in interps:
        res.attempted += 1
        res.fidelity = fidelity(interp, ref)
        worst, phantoms = res.fidelity
        if worst >= CHECK_MAX_ERR_DEG or phantoms:
            res.failed += 1
            res.wrong += 1
            res.failures.append(f"grid check: max |err| {worst:.4f} deg, {phantoms} phantoms")
    return grid


def timed_tracking(sw, hs, spec, res, seed, seconds, fixed_ops):
    """Tracking runs until the budget is spent and ``spec.min_epochs`` are in."""
    good_epochs = 0
    t_start = time.perf_counter()
    while True:
        k = len(res.ops)
        res.attempted += 1
        try:
            op = track_once(sw, hs, res.data, spec, k, seed)
        except Exception as e:  # a failed operation, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            res.failed += 1
            # losing the target is a documented outcome of the filter; any
            # other exception is a defect and makes the run incorrect
            res.wrong += not isinstance(e, sw.tracking.DegeneracyError)
            res.failures.append(f"tracking op {k}: {type(e).__name__}: {e}")
            op = None
        res.ops.append(op)
        if op is not None:
            good_epochs += op["ticks"].size - 1
            log(f"op {k}: {op['ticks'].size - 1} epochs in {op['ticks'][-1] - op['t0']:.2f} s wall, "
                f"range {op['range_err_m']:.2f} m, depth {op['depth_err_m']:.3f} m")
        enough = good_epochs >= spec.min_epochs
        if budget_spent(len(res.ops), time.perf_counter() - t_start, seconds, fixed_ops, enough):
            break


def median_seconds(hs, intervals) -> float:
    """Median host-normalised duration of ``(start, end)`` intervals."""
    return float(np.median(hs.seconds(*zip(*intervals))))


def op_times(op, hs) -> tuple[np.ndarray, float]:
    """Epoch durations and ``run_tracker``'s duration of one tracking run, s."""
    ticks = op["ticks"]
    return hs.seconds(ticks[:-1], ticks[1:]), float(hs.seconds(op["t0"], ticks[-1])[0])


def end_to_end(res, hs) -> dict:
    """End-to-end metrics of an untraced pass, and its tracking accuracy.

    ``setup_s`` is the median import time plus the median setup time.
    """
    good = [op for op in res.ops if op is not None]
    if not good:
        raise SystemExit("error: every tracking operation failed; no metrics to report")
    times = [op_times(op, hs) for op in good]
    epoch_ms = np.concatenate([epoch_s for epoch_s, _ in times]) * 1e3
    own_s, starts, ends = zip(*res.imports)
    imports = np.array(own_s) * hs.factors(starts, ends)
    return {
        "setup_s": float(np.median(imports)) + median_seconds(hs, res.setups),
        "ok_frac": (res.attempted - res.failed) / res.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "build_s": median_seconds(hs, res.builds),
        "epochs_per_s": epoch_ms.size / sum(run_s for _, run_s in times),
        "epoch_ms_p50": float(np.median(epoch_ms)),
        "epoch_ms_p99": float(percentile(epoch_ms, 99)),
        "tracking.range_err_m": statistics.median(op["range_err_m"] for op in good),
        "tracking.depth_err_m": statistics.median(op["depth_err_m"] for op in good),
    }


# ---------------------------------------------------------------------------
# Traced pass and per-layer metrics
# ---------------------------------------------------------------------------


def _count_marginal(args, result):
    return {"M": int(np.size(args[0])), "n": int(result.size), "zeros": int(np.count_nonzero(result == 0.0))}


def _count_interp(args, result):
    return {"points": int(result.shape[0]), "values": int(result.size), "nan": int(np.isnan(result).sum())}


def trace_targets(sw):
    t, s = sw.tracking, sw.simulator
    return [
        (t, "run_tracker", None),
        (t, "predict_particles", None),
        (t, "update", None),
        (t, "effective_sample_size", None),
        (t, "resample", None),
        (t, "mmse_estimate", None),
        (t, "interpolate_doa_many", _count_interp),
        (t, "marginal_likelihood_batch", _count_marginal),
        (s, "interpolate_doa_many", _count_interp),
        (s, "generate_truth", None),
        (s, "generate_observations", None),
        (sw.grid, "build_doa_grid", None),
        (sw.io, "write_grid", None),
        (sw.io, "read_grid", None),
        (sw.io, "write_observations", None),
        (sw.io, "read_observations", None),
        (sw.environment, "find_eigenrays", None),
    ]


def per_layer(spans, traced, replay) -> dict:
    """Per-layer metrics of a traced pass; ``replay`` is its tracking run untraced."""
    selfs = self_times(spans)
    dur = [s["end"] - s["start"] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def ids(name, parent=None):
        out = by_name.get(name, [])
        if parent is not None:
            out = [i for i in out if spans[i]["parent"] >= 0 and spans[spans[i]["parent"]]["name"] == parent]
        return out

    n_epochs = len(ids("tracking.update"))
    n_runs = len(ids("tracking.run_tracker"))

    def per_epoch_ms(idx, times=dur):
        return 1e3 * sum(times[i] for i in idx) / n_epochs

    def mean_ms(name):
        idx = ids(name)
        return 1e3 * sum(dur[i] for i in idx) / len(idx)

    def total(idx, key):
        return sum(spans[i]["counts"][key] for i in idx)

    marg = ids("assoc.marginal_likelihood_batch", "tracking.update")
    interp = ids("grid.interpolate_doa_many", "tracking.update")
    worst, phantoms = traced.fidelity
    metrics = {
        "assoc.marginal_likelihood_batch.ms": per_epoch_ms(marg),
        "assoc.obs_per_epoch": total(marg, "M") / len(marg),
        "assoc.zero_like_frac": total(marg, "zeros") / total(marg, "n"),
        "grid.interpolate_doa_many.ms": per_epoch_ms(interp),
        "grid.interpolate_doa_many.points": total(interp, "points") / len(interp),
        "grid.interpolate_doa_many.nan_frac": total(interp, "nan") / total(interp, "values"),
        "tracking.update.self_ms": per_epoch_ms(ids("tracking.update"), selfs),
        "tracking.predict_particles.ms": per_epoch_ms(ids("tracking.predict_particles")),
        "tracking.effective_sample_size.ms": per_epoch_ms(ids("tracking.effective_sample_size")),
        "tracking.mmse_estimate.ms": per_epoch_ms(ids("tracking.mmse_estimate")),
        "tracking.resample.ms": per_epoch_ms(ids("tracking.resample")),
        "tracking.resample.calls": len(ids("tracking.resample")) / n_runs,
        "tracking.run_tracker.self_ms": per_epoch_ms(ids("tracking.run_tracker"), selfs),
        "tracking.epochs": n_epochs,
        "grid.build_doa_grid.s": statistics.median(dur[i] for i in ids("grid.build_doa_grid")),
        "grid.fidelity_max_err_deg": worst,
        "grid.fidelity_phantoms": phantoms,
        "environment.find_eigenrays.ms": mean_ms("environment.find_eigenrays"),
        "io.write_grid.ms": mean_ms("io.write_grid"),
        "io.read_grid.ms": mean_ms("io.read_grid"),
        "io.grid_bytes": traced.data.grid_bytes,
        "io.write_observations.ms": mean_ms("io.write_observations"),
        "io.read_observations.ms": mean_ms("io.read_observations"),
        "simulator.generate_truth.ms": mean_ms("simulator.generate_truth"),
        "simulator.generate_observations.ms": mean_ms("simulator.generate_observations"),
    }
    for kind, frac in traced.data.grid.coverage().items():
        metrics[f"grid.impossible_frac.{kind.name}"] = frac
    op = traced.ops[0]
    for name, rate in (("epochs_per_s", epochs_per_s), ("epoch_ms_p50", epoch_ms_p50)):
        metrics[f"trace_overhead.{name}"] = rate(op) - rate(replay)
    metrics["tracking.range_err_m"] = replay["range_err_m"]
    metrics["tracking.depth_err_m"] = replay["depth_err_m"]
    return metrics


def epochs_per_s(op) -> float:
    epoch_s, run_s = op_times(op, WALL)
    return epoch_s.size / run_s


def epoch_ms_p50(op) -> float:
    return 1e3 * float(np.median(op_times(op, WALL)[0]))


def traced_run(sw, workload, seed, workdir):
    """A traced pass of one operation, then its tracking run again untraced.

    The untraced replay must give bit-identical estimates, and the two
    runs give the tracing overhead of the epoch metrics.  The grid build
    is a single wrapped call, so it is built once, traced.
    """
    tracer = Tracer()
    with patched(tracer, trace_targets(sw)):
        traced = run_pass(sw, WALL, workload, seed, 0.0, workdir, setup_repeats=1, fixed_ops=1)
        if workload != "grid_full":
            # grid_full checks its builds already; here the README grid is checked
            grid = traced.data.grid
            ref = eigenray_reference(sw, traced.wg, traced.points, grid.kinds)
            traced.fidelity = fidelity(sw.grid.interpolate_doa_many(grid, traced.points), ref)
    if traced.ops[0] is None:
        raise SystemExit("error: the traced tracking run failed; no metrics to report")
    traced.attempted += 1
    replay = track_once(sw, WALL, traced.data, workload_spec(sw, workload), 0, seed)
    if not np.array_equal(traced.ops[0]["estimates"], replay["estimates"]):
        traced.failed += 1
        traced.wrong += 1
        traced.failures.append("traced estimates differ from untraced")
    return traced, tracer, per_layer(tracer.spans, traced, replay)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    sw = load_program(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if args.trace:
            res, tracer, values = traced_run(sw, args.workload, args.seed, Path(tmp))
            tracer.write(out_dir / f"spans-{tag}.jsonl")
            wanted = bench["per_layer"]
        else:
            with HostSpeed() as hs:
                res = run_pass(sw, hs, args.workload, args.seed, args.seconds, Path(tmp))
            values = end_to_end(res, hs)
            wanted = bench["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    result = {
        "correct": res.wrong == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(root),
        "failures": res.failures,
        "epochs": sum(op["ticks"].size - 1 for op in res.ops if op is not None),
        "accuracy": {k: values[k] for k in ("tracking.range_err_m", "tracking.depth_err_m")},
        "builds_wall_s": [b - a for a, b in res.builds],
        "ops": [
            None if op is None else {
                "run_wall_s": op["ticks"][-1] - op["t0"],
                **{k: op[k] for k in ("range_err_m", "depth_err_m")},
            }
            for op in res.ops
        ],
        "result": result,
    }
    if not args.trace:
        # the same run in plain wall-clock seconds, and the host speed it was scaled by
        wall = end_to_end(res, WALL)
        detail["wall_clock"] = {m["name"]: wall[m["name"]] for m in wanted}
        detail["host"] = {"kernel_ms": hs.kernel_ms(), "samples": len(hs.dur)}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({k: detail[k] for k in
                      ("workload", "seed", "machine", "failures", "epochs", "accuracy", "wall_clock", "host")
                      if k in detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
