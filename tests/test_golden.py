"""The README pipeline, byte for byte: a golden run.

``build-grid`` of the README (roi 100..3600 m x 10..175 m, 876 x 56), then
``simulate``, ``track`` and ``evaluate`` of ``configs/default_run.json`` at
seeds 0 and 1, all in process through ``cli.main``; then ``simulate``
and ``track`` of the same config at ``K = 2`` and seed 0, without its
``model`` block, as ``tools/ab.py epoch --K 2`` runs it.  The sha256 of
the grid, of each run's ``estimates.csv`` and of seed 0's evaluate run
entry must match ``tests/golden.json``, which also names the Python, numpy and
machine it was made with, so a failure says whether the environment
changed.  The run entry is hashed without its file path, which names the
temporary directory.

A change that means to move the outputs regenerates the reference with

    python tests/test_golden.py --write

which prints the old and the new hash of each output; any other change
leaves ``tests/golden.json`` alone.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEEDS = (0, 1)

if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))

from swfocal import cli  # noqa: E402


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_readme_pipeline(root: Path) -> tuple[dict, dict]:
    """The outputs' sha256 by name, and the run's counts and wall time."""

    def run(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0

    grid = root / "grid.bin"
    run("build-grid", "--env", REPO / "configs" / "coastal_216m_env.json", "--out", grid,
        "--roi", 100, 3600, 10, 175, "--nr", 876, "--nd", 56)
    cfg = json.loads((REPO / "configs" / "default_run.json").read_text())
    config = root / "run.json"
    config.write_text(json.dumps(dict(cfg, grid_file=str(grid), output_dir=str(root / "out"))))

    hashes, counts = {"grid.bin": sha256(grid.read_bytes())}, {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        out = root / f"seed{seed}"
        run("simulate", "--config", config, "--seed", seed, "--out", out)
        run("track", "--config", config, "--seed", seed, "--out", out)
        hashes[f"seed{seed}/estimates.csv"] = sha256((out / "estimates.csv").read_bytes())
        if seed == 0:
            report = out / "report.json"
            run("evaluate", "--estimates", out / "estimates.csv", "--truth", out / "truth.csv", "--out", report)
            entry = json.loads(report.read_text())["runs"][0]
            del entry["estimates_file"]
            hashes["seed0/evaluate run"] = sha256(json.dumps(entry, sort_keys=True).encode())
            counts = {
                "truth_epochs": (out / "truth.csv").read_text().count("\n") - 1,
                "records": (out / "observations.jsonl").read_text().count("\n"),
                "evaluated_epochs": entry["n_epochs"],
            }
            counts["seconds"] = time.perf_counter() - t0
    # the SB and DP layers under the K = 2 defaults: the model block holds four sigmas
    config = root / "run_k2.json"
    doc = {key: value for key, value in cfg.items() if key != "model"}
    config.write_text(json.dumps(dict(doc, K=2, grid_file=str(grid), output_dir=str(root / "out"))))
    out = root / "k2_seed0"
    run("simulate", "--config", config, "--seed", 0, "--out", out)
    run("track", "--config", config, "--seed", 0, "--out", out)
    hashes["K2/seed0/estimates.csv"] = sha256((out / "estimates.csv").read_bytes())
    return hashes, counts


def test_readme_pipeline_matches_the_golden_hashes(tmp_path):
    hashes, counts = run_readme_pipeline(tmp_path)
    # the shipped run: 586 epochs, 514 after the two 74 s dropouts, well
    # inside five minutes at the default particle count
    assert counts["truth_epochs"] == 586
    assert counts["records"] == 586 - 72
    assert counts["evaluated_epochs"] == 514
    assert counts["seconds"] < 300.0
    ref = json.loads(GOLDEN.read_text())
    assert hashes == ref["sha256"], (
        f"outputs moved; reference made with {ref['made_with']}, this run with {environment()}\n"
        f"reference: {json.dumps(ref['sha256'], indent=2)}\nthis run:  {json.dumps(hashes, indent=2)}"
    )


def write_reference() -> None:
    old = json.loads(GOLDEN.read_text())["sha256"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        hashes, _ = run_readme_pipeline(Path(root))
    GOLDEN.write_text(json.dumps({"made_with": environment(), "sha256": hashes}, indent=2) + "\n")
    for name, new in hashes.items():
        print(f"{name}: {old.get(name, '-')} -> {new}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_reference()
