"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload track_k4 --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one process at a time, from the
current directory, and prints per end-to-end metric the median, the
quartile spread as a share of the median (``statistics.quantiles(n=4)``)
and that spread against the metric's bound in ``BENCHMARK.json``.  The
aim is every spread except ``setup_s`` below a third of its bound.  The
bounds themselves rest on a looser rule: each such spread within its
bound, and the medians of a second set of runs of the same code not worse
than the first set's by more than the bound.  Compare two sets by running
this script twice.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

RUN_TIMEOUT_S = 180


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    script = Path(__file__).with_name("run.py")
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = [
            sys.executable, str(script), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs)
        print(f"{m['name']:<14} {statistics.median(xs):>12.5g} {spread:>8.4f} "
              f"{m['bound']:>6} {spread / m['bound']:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
