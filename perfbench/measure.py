"""Sample statistics and machine facts shared by the benchmark scripts."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

MIN_TAIL = 10


def percentile(samples, q: float, min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q``-th percentile, refused without ``min_tail`` samples beyond it.

    A tail percentile read from fewer samples than that is one or two
    outliers, not a property of the run.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_tail:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need at least {min_tail}"
        )
    return xs[rank - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env={**os.environ, "GIT_DIR": str(root / ".git")},
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return proc.stdout.strip() or "unknown (git failed)"


def machine_facts(root: Path) -> dict:
    """CPU, cache, interpreter and source facts to store with every result."""
    import numpy

    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = _read(base + "level"), _read(base + "size")
        if level and size and level.strip() in ("2", "3"):
            caches[f"L{level.strip()}"] = size.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": _git_commit(root),
        "threads_env": {
            v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
