"""Same-process A/B of the DOA grid build: a base revision beside this checkout.

Usage, from the root of a source checkout:

    python3 tools/ab_build.py --base HEAD~1 --rounds 5
    python3 tools/ab_build.py --base HEAD~1 --seeds 0 1 --json ab.json

Both copies of swfocal are imported into this one process, as in
``tools/ab_epoch.py`` (its ``extract_src`` and ``import_side``).  Each
round builds the coastal 2400x165 grid of ``perfbench``'s ``grid_full``
with ``build_doa_grid`` on both sides, alternating which side goes first,
then builds it once more per side with the solver instrumented.

Per side it prints the median build time of the plain builds.  The
instrumented builds wrap ``environment._grazing_angle``, the range function
``environment._path_range`` and the bracket start ``environment._fan_start``.
They count the range-function rays and calls, the evaluations per eigenray
(the rays outside the bracketing fan over the finite roots) and a histogram
of the refinement steps per solve (its range-function calls after the
first, which evaluates the fan).  They also time the solve's stages, as
median ms per build:

* fan: the range function on the fan;
* first evaluation: from the return of ``_fan_start`` to the end of the
  second range-function call, which evaluates every bracket once (trial
  angle, its sine and cosine, range function);
* leftovers: in solves with a third range-function call, from the end of
  the second to the solve's return, with the brackets that entered this
  refinement and the bracket evaluations it took;
* rest: the instrumented build less those three: bracketing, the start,
  the arrival-angle conversion, the bookkeeping of solves without
  leftovers, the grid's depth loop and the wrappers' own cost.

It then compares the two sides' grids: the largest |difference| of their
values and whether their ``nan`` patterns are equal.  Last, each side runs
the README pipeline on its own: the 876x56 README grid, then
``configs/default_run.json`` simulated and tracked at each of ``--seeds``.
The estimates' largest range and depth differences and ESS difference are
printed.  It exits 1 unless the grid values agree within 1e-11 deg with
equal ``nan`` patterns and the estimates within 1e-9 m.  Single-threaded:
the BLAS thread pools are pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_epoch import ENV_FILE, ROOT, RUN_CONFIG, cpu_model, extract_src, import_side, readme_streams  # noqa: E402

FULL_ROI = (100.0, 2500.0, 10.0, 175.0)
FULL_SHAPE = (2400, 165)
GRID_TOL_DEG = 1e-11
ESTIMATE_TOL_M = 1e-9


def build(side, wg, roi, shape):
    """The grid and the seconds of one ``build_doa_grid`` call."""
    t0 = time.perf_counter()
    grid = side.grid.build_doa_grid(wg, roi, *shape)
    return grid, time.perf_counter() - t0


STAGES = ("fan", "first evaluation", "leftovers", "rest")


def instrumented_build(side, wg, roi, shape):
    """One build with the solve wrapped: (grid, counts, {stage: seconds}).

    ``counts`` holds the range-function ``rays`` and ``calls``, the
    ``refine_rays`` after each solve's first (fan) call, the finite
    ``roots``, ``steps``, a {steps: solves} histogram, and the
    ``leftover_brackets`` and ``leftover_evaluations`` (rays from each
    solve's third range-function call on).
    """
    env = side.environment
    path_range, solve, fan_start = env._path_range, env._grazing_angle, env._fan_start
    clock = time.perf_counter
    count = {"rays": 0, "calls": 0, "refine_rays": 0, "roots": 0, "steps": Counter(),
             "leftover_brackets": 0, "leftover_evaluations": 0}
    seconds = dict.fromkeys(STAGES, 0.0)
    solve_state = {"calls": 0, "mark": 0.0, "first_end": 0.0}

    def timed_range(x, *args):
        t0 = clock()
        out = path_range(x, *args)
        t1 = clock()
        k = solve_state["calls"]
        solve_state["calls"] += 1
        count["rays"] += x.size
        count["calls"] += 1
        if k == 0:
            seconds["fan"] += t1 - t0
        else:
            count["refine_rays"] += x.size
        if k == 1:
            seconds["first evaluation"] += t1 - solve_state["mark"]
            solve_state["first_end"] = t1
        if k == 2:
            count["leftover_brackets"] += x.size
        if k >= 2:
            count["leftover_evaluations"] += x.size
        solve_state["mark"] = t1
        return out

    def timed_start(*args):
        out = fan_start(*args)
        solve_state["mark"] = clock()
        return out

    def timed_solve(*args):
        solve_state["calls"] = 0
        out = solve(*args)
        if solve_state["calls"] > 2:
            seconds["leftovers"] += clock() - solve_state["first_end"]
        count["steps"][solve_state["calls"] - 1] += 1
        count["roots"] += int(np.count_nonzero(~np.isnan(out[0])))
        return out

    env._path_range, env._grazing_angle, env._fan_start = timed_range, timed_solve, timed_start
    try:
        grid, total = build(side, wg, roi, shape)
    finally:
        env._path_range, env._grazing_angle, env._fan_start = path_range, solve, fan_start
    seconds["rest"] = total - sum(seconds.values())
    count["steps"] = dict(sorted(count["steps"].items()))
    return grid, count, seconds


def readme_estimates(side, seed: int) -> np.ndarray:
    """(time, range, depth, speed, ESS) rows of the README pipeline at ``seed``, all made by ``side``."""
    cfg = side.cli.load_config(RUN_CONFIG)
    grid, (stream,) = readme_streams(side, cfg, [seed])
    obs = ((t, side.assoc.ObservationSet(z=z)) for t, z in stream)
    out = side.tracking.run_tracker(grid, obs, cfg.model, cfg.motion, cfg.prior, J=cfg.n_particles, seed=seed)
    return np.array([(t, e.range_m, e.depth_m, e.speed_mps, ess) for t, e, ess in out])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD~1")
    p.add_argument("--rounds", type=int, default=5, help="timed builds on each side")
    p.add_argument("--seeds", type=int, nargs="*", default=[0], help="README pipeline seeds (none: skip it)")
    p.add_argument("--json", type=Path, help="also write the results and every build's time here")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": import_side(extract_src(args.base, Path(tmp) / "base")), "change": import_side(ROOT / "src")}
    wgs = {name: side.io.read_environment(ENV_FILE) for name, side in sides.items()}

    seconds = {"base": [], "change": []}
    stage_s = {"base": [], "change": []}
    grids, counts = {}, {}
    wins = 0
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        got = {name: build(sides[name], wgs[name], FULL_ROI, FULL_SHAPE)[1] for name in order}
        wins += got["change"] < got["base"]
        for name in order:
            seconds[name].append(got[name])
            grid, counts[name], stages = instrumented_build(sides[name], wgs[name], FULL_ROI, FULL_SHAPE)
            grids[name] = grid.values
            stage_s[name].append(stages)
        print(f"round {r}: base {got['base']:.3f} s, change {got['change']:.3f} s", file=sys.stderr)

    nan_equal = bool(np.array_equal(np.isnan(grids["base"]), np.isnan(grids["change"])))
    grid_max = float(np.nanmax(np.abs(grids["base"] - grids["change"])))
    stage_ms = {name: {k: 1e3 * statistics.median(s[k] for s in stage_s[name]) for k in STAGES}
                for name in sides}

    shape = f"{FULL_SHAPE[0]}x{FULL_SHAPE[1]}"
    print(f"build_doa_grid, coastal {shape}, {args.rounds} rounds")
    print(f"{'':<26}{'base':>12}{'change':>12}{'ratio':>8}")
    rows = [("median build s", *(statistics.median(seconds[n]) for n in ("base", "change")))]
    rows += [(f"range-function {k}", counts["base"][k], counts["change"][k]) for k in ("rays", "calls")]
    rows += [("evaluations/eigenray", *(counts[n]["refine_rays"] / counts[n]["roots"] for n in ("base", "change")))]
    rows += [(f"{k} ms", stage_ms["base"][k], stage_ms["change"][k]) for k in STAGES]
    rows += [(k.replace("_", " "), counts["base"][k], counts["change"][k])
             for k in ("leftover_brackets", "leftover_evaluations")]
    for k, b, c in rows:
        fmt = "12.3f" if isinstance(b, float) else "12d"
        print(f"{k:<26}{b:{fmt}}{c:{fmt}}{c / b:8.3f}")
    for name in ("base", "change"):
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
        d = np.abs(est["base"] - est["change"])
        pipeline[seed] = {"range_m": float(d[:, 1].max()), "depth_m": float(d[:, 2].max()),
                          "speed_mps": float(d[:, 3].max()), "ess": float(d[:, 4].max())}
        print(f"README pipeline seed {seed}: max |diff| range {pipeline[seed]['range_m']:.3g} m, "
              f"depth {pipeline[seed]['depth_m']:.3g} m, ESS {pipeline[seed]['ess']:.3g}")
        failed |= max(pipeline[seed]["range_m"], pipeline[seed]["depth_m"]) > ESTIMATE_TOL_M

    if args.json:
        machine = {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version(),
                   "numpy": np.__version__}
        args.json.write_text(json.dumps(
            {"base": args.base, "grid": shape, "rounds": args.rounds, "machine": machine,
             "median_s": {n: statistics.median(s) for n, s in seconds.items()}, "wins": wins,
             "stage_median_ms": stage_ms,
             "range_function": counts, "grid_max_abs_diff_deg": grid_max, "nan_equal": nan_equal,
             "readme_pipeline_max_abs_diff": pipeline, "build_s": seconds}, indent=1))
    if failed:
        print(f"error: outside the tolerance ({GRID_TOL_DEG} deg on the grid, {ESTIMATE_TOL_M} m on estimates)",
              file=sys.stderr)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
