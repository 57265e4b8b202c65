"""Same-process A/B of the tracking epoch: a base revision beside this checkout.

Usage, from the root of a source checkout:

    python3 tools/ab_epoch.py --base HEAD~1 --seeds 0 1 --rounds 5
    python3 tools/ab_epoch.py --base HEAD~1 --K 2 --json ab.json

The base revision's ``src/`` is taken with ``git archive`` into a
temporary directory, and both copies of swfocal are imported into this one
process, each under its own module objects.  Both sides track the same
README streams: ``configs/default_run.json`` simulated at each seed on
the README's 876x56 grid, which this checkout builds, and tracked with
``--K`` and ``--J`` (at K = 2 without the config's model block, so the
two bottom paths count as clutter).  Each round runs every stream on both
sides, alternating which side goes first, and stops with an error unless
the two give identical estimates.

Per side it prints medians over the runs of wall-clock ms per epoch: the
whole epoch (the run's mean, and its p50 and p99 epoch), and the stages,
timed by wrapping the functions that ``tracking`` calls: the grid lookup,
the association marginal, ``update``'s own time, prediction, ESS, the
mean estimate and resampling.  ``wins`` counts the runs where this
checkout's mean epoch was the faster.  Single-threaded: the BLAS thread
pools are pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_CONFIG = ROOT / "configs" / "default_run.json"
ENV_FILE = ROOT / "configs" / "coastal_216m_env.json"
README_SHAPE = (876, 56)
MODULES = ("assoc", "environment", "grid", "io", "simulator", "tracking", "cli")
# (name, function in ``tracking`` whose calls are timed)
STAGES = (
    ("lookup", "interpolate_doa_many"),
    ("marginal", "marginal_likelihood_batch"),
    ("update", "update"),
    ("predict", "predict_particles"),
    ("ess", "effective_sample_size"),
    ("mmse", "mmse_estimate"),
    ("resample", "resample"),
)


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


class StageClock:
    """Wraps the stages ``tracking`` calls and sums their wall time."""

    def __init__(self, tracking):
        self.tracking = tracking
        self.totals = dict.fromkeys((name for name, _ in STAGES), 0.0)
        self.originals = {fn: getattr(tracking, fn) for _, fn in STAGES}

    def __enter__(self):
        for name, fn in STAGES:
            setattr(self.tracking, fn, self.timed(name, self.originals[fn]))
        return self

    def __exit__(self, *exc):
        for fn, f in self.originals.items():
            setattr(self.tracking, fn, f)

    def timed(self, name, f):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                self.totals[name] += time.perf_counter() - t0

        return wrapper


def track(side: SimpleNamespace, grid, stream, cfg) -> dict:
    """One whole ``run_tracker`` run; its estimates and per-epoch timings in ms."""
    pulls = []

    def timed_stream():
        for t, z in stream:
            pulls.append(time.perf_counter())
            yield t, side.assoc.ObservationSet(z=z)
        pulls.append(time.perf_counter())

    with StageClock(side.tracking) as clock:
        out = side.tracking.run_tracker(
            grid, timed_stream(), cfg.model, cfg.motion, cfg.prior, J=cfg.n_particles, seed=cfg.seed
        )
    epochs = np.diff(pulls) * 1e3
    stages = {k: v * 1e3 / epochs.size for k, v in clock.totals.items()}
    stages["update"] -= stages["lookup"] + stages["marginal"]  # update's own time
    return {
        "estimates": np.array([(t, e.range_m, e.depth_m, e.speed_mps, ess) for t, e, ess in out]),
        "epoch_ms_mean": float(epochs.mean()),
        "epoch_ms_p50": float(np.percentile(epochs, 50)),
        "epoch_ms_p99": float(np.percentile(epochs, 99)),
        "stages_ms": stages,
    }


def readme_streams(change: SimpleNamespace, cfg, seeds) -> tuple[object, list]:
    """The README grid and one observation stream per seed, made by ``change``."""
    env = change.io.read_environment(ENV_FILE)
    grid = change.grid.build_doa_grid(env, cfg.prior.roi, *README_SHAPE)
    streams = []
    for seed in seeds:
        truth = change.simulator.generate_truth(cfg.scenario, seed=seed)
        obs = change.simulator.generate_observations(truth, grid, cfg.model, seed=seed)
        streams.append(
            [(float(t), o.z) for t, o in zip(truth.times_s, obs) if not cfg.scenario.in_dropout(float(t))]
        )
    return grid, streams


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def summary(runs: list[dict]) -> dict:
    keys = ("epoch_ms_mean", "epoch_ms_p50", "epoch_ms_p99")
    out = {k: statistics.median(r[k] for r in runs) for k in keys}
    out["stages_ms"] = {k: statistics.median(r["stages_ms"][k] for r in runs) for k in runs[0]["stages_ms"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD~1")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1], help="stream and filter seeds")
    p.add_argument("--rounds", type=int, default=3, help="runs of every stream on each side")
    p.add_argument("--K", type=int, default=4, choices=(2, 4))
    p.add_argument("--J", type=int, default=10_000)
    p.add_argument("--json", type=Path, help="also write the medians and every run's timings here")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"base": import_side(extract_src(args.base, tmp / "base")), "change": import_side(ROOT / "src")}
        grid, streams = readme_streams(sides["change"], sides["change"].cli.load_config(RUN_CONFIG), args.seeds)
        doc = dict(json.loads(RUN_CONFIG.read_text()), K=args.K, J=args.J)
        if args.K != 4:
            del doc["model"]  # it holds four sigmas; K = 2 takes the defaults
        (tmp / "run.json").write_text(json.dumps(doc))
        cfgs = {name: side.cli.load_config(tmp / "run.json") for name, side in sides.items()}
        sides["change"].io.write_grid(tmp / "grid.bin", grid)
        grids = {
            name: side.io.read_grid(tmp / "grid.bin").select_kinds(tuple(side.environment.PathKind)[: args.K])
            for name, side in sides.items()
        }

    runs = {"base": [], "change": []}
    wins = 0
    for r in range(args.rounds):
        for i, (seed, stream) in enumerate(zip(args.seeds, streams)):
            order = ("base", "change") if (r + i) % 2 == 0 else ("change", "base")
            got = {}
            for name in order:
                cfg = dataclasses.replace(cfgs[name], seed=seed)
                got[name] = track(sides[name], grids[name], stream, cfg)
            if got["base"]["estimates"].tobytes() != got["change"]["estimates"].tobytes():
                raise SystemExit(f"error: the estimates differ at seed {seed}, round {r}")
            wins += got["change"]["epoch_ms_mean"] < got["base"]["epoch_ms_mean"]
            for name in order:
                runs[name].append({k: v for k, v in got[name].items() if k != "estimates"})
            print(
                f"round {r} seed {seed}: base {got['base']['epoch_ms_mean']:.3f} ms, "
                f"change {got['change']['epoch_ms_mean']:.3f} ms per epoch",
                file=sys.stderr,
            )

    med = {name: summary(rs) for name, rs in runs.items()}
    print(f"K = {args.K}, J = {args.J}, seeds {args.seeds}, {args.rounds} rounds; estimates identical")
    print(f"{'ms per epoch':<16}{'base':>9}{'change':>9}{'ratio':>8}")
    rows = [(k, med["base"][k], med["change"][k]) for k in ("epoch_ms_mean", "epoch_ms_p50", "epoch_ms_p99")]
    rows += [(k, med["base"]["stages_ms"][k], med["change"]["stages_ms"][k]) for k in med["base"]["stages_ms"]]
    for k, b, c in rows:
        print(f"{k:<16}{b:9.3f}{c:9.3f}{c / b:8.3f}")
    n = len(runs["change"])
    print(f"wins: {wins} of {n} runs had the faster mean epoch with the change")
    if args.json:
        machine = {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version(),
                   "numpy": np.__version__}
        args.json.write_text(json.dumps(
            {"base": args.base, "K": args.K, "J": args.J, "seeds": args.seeds, "rounds": args.rounds,
             "machine": machine, "median": med, "wins": wins, "runs": n, "per_run": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
