"""Same-process A/B of a base revision beside this checkout: the tracking epoch, the DOA grid build or
the observation path.

Usage, from the root of a source checkout:

    python3 tools/ab.py epoch --base HEAD~1 --seeds 0 1 --rounds 5 [--K 2] [--J 1000] [--json ab.json]
    python3 tools/ab.py build --base HEAD~1 --rounds 5 [--seeds 0 1] [--json ab.json]
    python3 tools/ab.py obs --base HEAD~1 --seeds 0 1 2 3 --rounds 10 [--json ab.json]

The base revision's ``src/`` is taken with ``git archive`` into a temporary
directory, and both copies of swfocal are imported into this one process;
a ``--base`` that git cannot archive exits 2 with git's message.
Each round runs both sides, alternating which goes first.  Stages are timed
with the benchmark's span tracer (``perfbench/spans.py``); ``--json`` also
writes every run's timings and ``perfbench/measure.py``'s machine facts.
The BLAS thread pools are pinned to one thread before numpy loads.

``epoch`` tracks the README streams, ``configs/default_run.json`` simulated
at each seed on the 876x56 README grid, at ``--K`` and ``--J`` (at K = 2
without the model block, so the bottom paths count as clutter), and stops
with an error unless both sides give identical estimates.  It prints the
median ms per epoch of the mean, p50 and p99 epoch and of the self time of
each function in ``EPOCH_STAGES``, and the runs whose mean epoch the change won.

``build`` times builds of ``perfbench``'s 2400x165 ``grid_full`` grid and
traces one more per side and round, wrapping the solve ``_grazing_angle``,
the range function ``_path_range`` and the bracket start ``_fan_start``: it
counts the range-function rays and calls, the evaluations per eigenray
(rays after the fan over finite roots) and the solves by refinement steps
(calls after the fan), and gives the median ms per build of
* fan: the range function on the fan;
* first evaluation: from the return of ``_fan_start`` to the end of the
  second range-function call, which evaluates every bracket once;
* leftovers: from there to the return of solves with a third call, with the
  brackets that entered them and the bracket evaluations they took;
* rest: the traced build less those three.
It exits 1 unless the sides' grids agree within 1e-11 deg with equal ``nan``
patterns and the README pipeline, which each side runs on its own at each
of ``--seeds``, gives estimates within 1e-9 m.

``obs`` runs the README observation path at each seed on the 876x56 README
grid, as ``swfocal simulate`` and ``swfocal track`` do: the stream is
generated (``simulator.generate_observations``), its records written
(``io.write_observations``), read back (``io.read_observations``) and
wrapped in a second ``ObservationSet`` per record.  It prints the median ms
per stream of each of those four stages and of their total, and the streams
whose total the change won.  It exits 1 unless both sides write the same
file bytes and read back the same records, array bytes included.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from measure import machine_facts  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402

RUN_CONFIG = ROOT / "configs" / "default_run.json"
ENV_FILE = ROOT / "configs" / "coastal_216m_env.json"
README_SHAPE = (876, 56)
FULL_ROI = (100.0, 2500.0, 10.0, 175.0)
FULL_SHAPE = (2400, 165)
GRID_TOL_DEG = 1e-11
ESTIMATE_TOL_M = 1e-9
MODULES = ("assoc", "environment", "grid", "io", "simulator", "tracking", "cli")
SIDES = ("base", "change")
# stage: the function in ``tracking`` whose calls it times
EPOCH_STAGES = {"lookup": "interpolate_doa_many", "marginal": "marginal_likelihood_batch", "update": "update",
                "predict": "predict_particles", "ess": "effective_sample_size", "mmse": "mmse_estimate",
                "resample": "resample"}
BUILD_STAGES = ("fan", "first evaluation", "leftovers", "rest")
OBS_STAGES = ("generate", "write", "read", "wrap")
SOLVE, RANGE, START = "environment._grazing_angle", "environment._path_range", "environment._fan_start"


def import_side(src: Path) -> SimpleNamespace:
    """swfocal's modules imported from ``src``, leaving ``sys.modules`` as it was."""
    ours = lambda: [k for k in sys.modules if k == "swfocal" or k.startswith("swfocal.")]  # noqa: E731
    saved = {k: sys.modules.pop(k) for k in ours()}
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"swfocal.{name}") for name in MODULES}
    finally:
        sys.path.remove(str(src))
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)
    loaded = Path(mods["tracking"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"error: swfocal was imported from {loaded}, not {src}")
    return SimpleNamespace(**mods)


def extract_src(rev: str, into: Path) -> Path:
    """``src/`` of git revision ``rev`` of this checkout, written under ``into``."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def alternate(i: int) -> tuple[str, str]:
    """The order of the sides in run ``i``: the base first in even runs."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def table(head: str, rows, width: int, col: int) -> None:
    """Rows of (name, base, change) with the change / base ratio; ints print as ints."""
    print(f"{head:<{width}}{'base':>{col}}{'change':>{col}}{'ratio':>8}")
    for k, b, c in rows:
        fmt = f"{col}.3f" if isinstance(b, float) else f"{col}d"
        print(f"{k:<{width}}{b:{fmt}}{c:{fmt}}{c / b:8.3f}")


def readme_streams(side: SimpleNamespace, cfg, seeds) -> tuple[object, list]:
    """The README grid and one observation stream per seed, made by ``side``."""
    env = side.io.read_environment(ENV_FILE)
    grid = side.grid.build_doa_grid(env, cfg.prior.roi, *README_SHAPE)
    streams = []
    for seed in seeds:
        truth = side.simulator.generate_truth(cfg.scenario, seed=seed)
        obs = side.simulator.generate_observations(truth, grid, cfg.model, seed=seed)
        streams.append([(float(t), o.z) for t, o in zip(truth.times_s, obs) if not cfg.scenario.in_dropout(float(t))])
    return grid, streams


def estimates(side: SimpleNamespace, grid, stream, cfg) -> np.ndarray:
    """(time, range, depth, speed, ESS) rows of one ``run_tracker`` run over ``stream``."""
    obs = ((t, side.assoc.ObservationSet(z=z)) for t, z in stream)
    out = side.tracking.run_tracker(grid, obs, cfg.model, cfg.motion, cfg.prior, J=cfg.n_particles, seed=cfg.seed)
    return np.array([(t, e.range_m, e.depth_m, e.speed_mps, ess) for t, e, ess in out])


def readme_estimates(side: SimpleNamespace, seed: int) -> np.ndarray:
    """The estimates of the README pipeline at ``seed``, all made by ``side``."""
    cfg = dataclasses.replace(side.cli.load_config(RUN_CONFIG), seed=seed)
    grid, (stream,) = readme_streams(side, cfg, [seed])
    return estimates(side, grid, stream, cfg)


def track(side: SimpleNamespace, grid, stream, cfg) -> dict:
    """One traced run: its estimates and per-epoch timings in ms.  An epoch
    span runs from one pull of the stream to the next, around its stages."""
    tracer = Tracer()

    def traced(stream):
        for item in stream:
            epoch = tracer.begin("epoch")
            yield item
            tracer.end(epoch)

    with patched(tracer, [(side.tracking, fn, None) for fn in EPOCH_STAGES.values()]):
        est = estimates(side, grid, traced(stream), cfg)
    epochs = 1e3 * np.array([s["end"] - s["start"] for s in tracer.spans if s["name"] == "epoch"])
    stage_of = {fn: name for name, fn in EPOCH_STAGES.items()}
    stages = dict.fromkeys(EPOCH_STAGES, 0.0)
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        if (fn := s["name"].rpartition(".")[2]) in stage_of:
            stages[stage_of[fn]] += own * 1e3 / epochs.size
    return {"estimates": est, "epoch_ms_mean": float(epochs.mean()), "epoch_ms_p50": float(np.percentile(epochs, 50)),
            "epoch_ms_p99": float(np.percentile(epochs, 99)), "stages_ms": stages}


def run_epoch(args, sides: dict, tmp: Path) -> tuple[bool, dict]:
    change = sides["change"]
    grid, streams = readme_streams(change, change.cli.load_config(RUN_CONFIG), args.seeds)
    doc = dict(json.loads(RUN_CONFIG.read_text()), K=args.K, J=args.J)
    if args.K != 4:
        del doc["model"]  # it holds four sigmas; K = 2 takes the defaults
    (tmp / "run.json").write_text(json.dumps(doc))
    cfgs = {name: side.cli.load_config(tmp / "run.json") for name, side in sides.items()}
    change.io.write_grid(tmp / "grid.bin", grid)
    grids = {name: side.io.read_grid(tmp / "grid.bin").select_kinds(tuple(side.environment.PathKind)[: args.K])
             for name, side in sides.items()}

    runs, wins = {name: [] for name in SIDES}, 0
    for r in range(args.rounds):
        for i, (seed, stream) in enumerate(zip(args.seeds, streams)):
            got = {name: track(sides[name], grids[name], stream, dataclasses.replace(cfgs[name], seed=seed))
                   for name in alternate(r + i)}
            if got["base"].pop("estimates").tobytes() != got["change"].pop("estimates").tobytes():
                raise SystemExit(f"error: the estimates differ at seed {seed}, round {r}")
            wins += got["change"]["epoch_ms_mean"] < got["base"]["epoch_ms_mean"]
            for name in SIDES:
                runs[name].append(got[name])
            print(f"round {r} seed {seed}: base {got['base']['epoch_ms_mean']:.3f} ms, "
                  f"change {got['change']['epoch_ms_mean']:.3f} ms per epoch", file=sys.stderr)

    epoch_keys = ("epoch_ms_mean", "epoch_ms_p50", "epoch_ms_p99")
    med = {name: {**{k: statistics.median(r[k] for r in rs) for k in epoch_keys},
                  "stages_ms": {k: statistics.median(r["stages_ms"][k] for r in rs) for k in EPOCH_STAGES}}
           for name, rs in runs.items()}
    print(f"K = {args.K}, J = {args.J}, seeds {args.seeds}, {args.rounds} rounds; estimates identical")
    rows = [(k, med["base"][k], med["change"][k]) for k in epoch_keys]
    rows += [(k, med["base"]["stages_ms"][k], med["change"]["stages_ms"][k]) for k in med["base"]["stages_ms"]]
    table("ms per epoch", rows, 16, 9)
    n = len(runs["change"])
    print(f"wins: {wins} of {n} runs had the faster mean epoch with the change")
    return False, {"K": args.K, "J": args.J, "seeds": args.seeds, "rounds": args.rounds,
                   "median": med, "wins": wins, "runs": n, "per_run": runs}


def timed_build(side: SimpleNamespace, wg):
    """The full grid and the seconds of one ``build_doa_grid`` call."""
    t0 = time.perf_counter()
    grid = side.grid.build_doa_grid(wg, FULL_ROI, *FULL_SHAPE)
    return grid, time.perf_counter() - t0


def traced_build(side: SimpleNamespace, wg):
    """One build with the solve traced: (grid values, counts, {stage: seconds}).

    ``counts`` holds the range-function ``rays`` and ``calls``, the
    ``refine_rays`` after each solve's fan, the finite ``roots``, the
    {steps: solves} histogram and the ``leftover_*`` counts.
    """
    env = side.environment
    tracer = Tracer()
    targets = [
        (env, "_path_range", lambda args, out: {"rays": args[0].size}),
        (env, "_fan_start", None),
        (env, "_grazing_angle", lambda args, out: {"roots": int(np.count_nonzero(~np.isnan(out[0])))}),
    ]
    with patched(tracer, targets):
        grid, total = timed_build(side, wg)

    calls, start_end = {}, {}  # per solve span: its range-function spans in call order, the start's end
    for s in tracer.spans:
        if s["name"] == RANGE:
            calls.setdefault(s["parent"], []).append(s)
        elif s["name"] == START:
            start_end[s["parent"]] = s["end"]
    rays = lambda spans: sum(s["counts"]["rays"] for s in spans)  # noqa: E731
    count = {"rays": sum(rays(c) for c in calls.values()), "calls": sum(map(len, calls.values())),
             "refine_rays": 0, "roots": 0, "steps": Counter(), "leftover_brackets": 0, "leftover_evaluations": 0}
    seconds = dict.fromkeys(BUILD_STAGES, 0.0)
    for i, solve in enumerate(tracer.spans):
        if solve["name"] != SOLVE:
            continue
        fan, first, *left = calls[i]
        seconds["fan"] += fan["end"] - fan["start"]
        seconds["first evaluation"] += first["end"] - start_end[i]
        if left:
            seconds["leftovers"] += solve["end"] - first["end"]
        count["steps"][1 + len(left)] += 1
        count["roots"] += solve["counts"]["roots"]
        count["refine_rays"] += rays([first, *left])
        count["leftover_brackets"] += rays(left[:1])
        count["leftover_evaluations"] += rays(left)
    seconds["rest"] = total - sum(seconds.values())
    count["steps"] = dict(sorted(count["steps"].items()))
    return grid.values, count, seconds


def run_build(args, sides: dict, tmp: Path) -> tuple[bool, dict]:
    wgs = {name: side.io.read_environment(ENV_FILE) for name, side in sides.items()}
    seconds, stage_s = ({name: [] for name in SIDES} for _ in range(2))
    grids, counts, wins = {}, {}, 0
    for r in range(args.rounds):
        order = alternate(r)
        got = {name: timed_build(sides[name], wgs[name])[1] for name in order}
        wins += got["change"] < got["base"]
        for name in order:
            seconds[name].append(got[name])
            grids[name], counts[name], stages = traced_build(sides[name], wgs[name])
            stage_s[name].append(stages)
        print(f"round {r}: base {got['base']:.3f} s, change {got['change']:.3f} s", file=sys.stderr)

    nan_equal = bool(np.array_equal(np.isnan(grids["base"]), np.isnan(grids["change"])))
    grid_max = float(np.nanmax(np.abs(grids["base"] - grids["change"])))
    stage_ms = {name: {k: 1e3 * statistics.median(s[k] for s in stage_s[name]) for k in BUILD_STAGES}
                for name in SIDES}

    shape = f"{FULL_SHAPE[0]}x{FULL_SHAPE[1]}"
    print(f"build_doa_grid, coastal {shape}, {args.rounds} rounds")
    rows = [("median build s", *(statistics.median(seconds[n]) for n in SIDES))]
    rows += [(f"range-function {k}", counts["base"][k], counts["change"][k]) for k in ("rays", "calls")]
    rows += [("evaluations/eigenray", *(counts[n]["refine_rays"] / counts[n]["roots"] for n in SIDES))]
    rows += [(f"{k} ms", stage_ms["base"][k], stage_ms["change"][k]) for k in BUILD_STAGES]
    rows += [(k.replace("_", " "), counts["base"][k], counts["change"][k])
             for k in ("leftover_brackets", "leftover_evaluations")]
    table("", rows, 26, 12)
    for name in SIDES:
        hist = ", ".join(f"{n} steps: {solves}" for n, solves in counts[name]["steps"].items())
        print(f"{name} solves by refinement steps: {hist}")
    print(f"wins: {wins} of {args.rounds} builds were faster with the change")
    print(f"grid values: max |diff| {grid_max:.3g} deg, nan patterns {'equal' if nan_equal else 'DIFFER'}")
    failed = not (nan_equal and grid_max <= GRID_TOL_DEG)

    pipeline = {}
    for seed in args.seeds:
        est = {name: readme_estimates(side, seed) for name, side in sides.items()}
        if est["base"].shape != est["change"].shape:
            print(f"README pipeline seed {seed}: {len(est['base'])} vs {len(est['change'])} estimates")
            failed = True
            continue
        d = np.abs(est["base"] - est["change"]).max(axis=0).tolist()
        pipeline[seed] = dict(zip(("range_m", "depth_m", "speed_mps", "ess"), d[1:]))
        print(f"README pipeline seed {seed}: max |diff| range {pipeline[seed]['range_m']:.3g} m, "
              f"depth {pipeline[seed]['depth_m']:.3g} m, ESS {pipeline[seed]['ess']:.3g}")
        failed |= max(pipeline[seed]["range_m"], pipeline[seed]["depth_m"]) > ESTIMATE_TOL_M
    if failed:
        print(f"error: outside the tolerance ({GRID_TOL_DEG} deg on the grid, {ESTIMATE_TOL_M} m on estimates)",
              file=sys.stderr)
    return failed, {"grid": shape, "rounds": args.rounds, "wins": wins,
                    "median_s": {n: statistics.median(s) for n, s in seconds.items()},
                    "stage_median_ms": stage_ms, "range_function": counts, "grid_max_abs_diff_deg": grid_max,
                    "nan_equal": nan_equal, "readme_pipeline_max_abs_diff": pipeline, "build_s": seconds}


def observation_path(side: SimpleNamespace, grid, cfg, seed: int, path: Path) -> tuple[dict, list]:
    """One README stream through ``side``'s four observation stages, its file at ``path``: the
    seconds of each stage and what the stream reads back as, the wrapped sets' angles included."""
    tracer = Tracer()

    def stage(name, fn, *args):
        span = tracer.begin(name)
        out = fn(*args)
        tracer.end(span)
        return out

    truth = side.simulator.generate_truth(cfg.scenario, seed=seed)
    obs = stage("generate", side.simulator.generate_observations, truth, grid, cfg.model, seed)
    records = [(i, t, o.z) for i, (t, o) in enumerate(zip(truth.times_s, obs))
               if not cfg.scenario.in_dropout(float(t))]
    stage("write", side.io.write_observations, path, records)
    back = stage("read", side.io.read_observations, path)
    stream = stage("wrap", lambda: [(t, side.assoc.ObservationSet(z=doas)) for _, t, doas in back])
    seconds = {s["name"]: s["end"] - s["start"] for s in tracer.spans}
    return seconds, [(i, t, z.tobytes(), o.z.tobytes()) for (i, t, z), (_, o) in zip(back, stream)]


def run_obs(args, sides: dict, tmp: Path) -> tuple[bool, dict]:
    cfg = sides["change"].cli.load_config(RUN_CONFIG)
    grid = sides["change"].grid.build_doa_grid(sides["change"].io.read_environment(ENV_FILE), cfg.prior.roi,
                                               *README_SHAPE)
    sides["change"].io.write_grid(tmp / "grid.bin", grid)
    inputs = {name: (side.io.read_grid(tmp / "grid.bin"), side.cli.load_config(RUN_CONFIG))
              for name, side in sides.items()}

    runs, wins, failed, sha256 = {name: [] for name in SIDES}, 0, False, {}
    for r in range(args.rounds):
        for i, seed in enumerate(args.seeds):
            got, files = {}, {}
            for name in alternate(r + i):
                files[name] = tmp / f"{name}-{seed}.jsonl"
                got[name] = observation_path(sides[name], *inputs[name], seed, files[name])
            same_file = files["base"].read_bytes() == files["change"].read_bytes()
            if not (same_file and got["base"][1] == got["change"][1]):
                print(f"error: the sides' {'records read back' if same_file else 'files'} differ at seed {seed}, "
                      f"round {r}", file=sys.stderr)
                failed = True
            sha256[seed] = hashlib.sha256(files["change"].read_bytes()).hexdigest()
            ms = {name: {k: 1e3 * got[name][0][k] for k in OBS_STAGES} for name in SIDES}
            for name in SIDES:
                ms[name]["total"] = sum(ms[name].values())
                runs[name].append(ms[name])
            wins += ms["change"]["total"] < ms["base"]["total"]
            print(f"round {r} seed {seed}: base {ms['base']['total']:.2f} ms, change {ms['change']['total']:.2f} ms "
                  "per stream", file=sys.stderr)

    keys = (*OBS_STAGES, "total")
    med = {name: {k: statistics.median(run[k] for run in rs) for k in keys} for name, rs in runs.items()}
    same = "DIFFER" if failed else "identical"
    print(f"README observation path, seeds {args.seeds}, {args.rounds} rounds; files and records {same}")
    table("ms per stream", [(k, med["base"][k], med["change"][k]) for k in keys], 16, 9)
    n = len(runs["change"])
    print(f"wins: {wins} of {n} streams had the faster total with the change")
    return failed, {"seeds": args.seeds, "rounds": args.rounds, "median": med, "wins": wins, "runs": n,
                    "sha256": sha256, "per_run": runs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    epoch = sub.add_parser("epoch", help="time the tracking epoch's stages on the README streams")
    build = sub.add_parser("build", help="time the 2400x165 grid build's solve stages, compare grids and estimates")
    obs = sub.add_parser("obs", help="time the observation path's stages on the README streams, compare their bytes")
    for s, default, run in ((epoch, 3, run_epoch), (build, 5, run_build), (obs, 5, run_obs)):
        s.set_defaults(run=run)
        s.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD~1")
        s.add_argument("--rounds", type=int, default=default, help="runs of every stream, or builds, on each side")
        s.add_argument("--json", type=Path, help="also write the results and every run's timings here")
    epoch.add_argument("--seeds", type=int, nargs="+", default=[0, 1], help="stream and filter seeds")
    epoch.add_argument("--K", type=int, default=4, choices=(2, 4))
    epoch.add_argument("--J", type=int, default=10_000)
    build.add_argument("--seeds", type=int, nargs="*", default=[0], help="README pipeline seeds (none: skip it)")
    obs.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3], help="stream seeds")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            base = extract_src(args.base, tmp / "base")
        except subprocess.CalledProcessError as e:  # no such revision, or no git checkout
            print(f"error: --base {args.base}: {' '.join(e.stderr.decode().split())}", file=sys.stderr)
            return 2
        sides = {"base": import_side(base), "change": import_side(ROOT / "src")}
        failed, doc = args.run(args, sides, tmp)
    if args.json:
        args.json.write_text(json.dumps({"base": args.base, **doc, "machine": machine_facts(ROOT)}, indent=1))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
