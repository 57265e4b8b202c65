"""``tools/ab.py`` end to end: both subcommands against this checkout's HEAD."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not (REPO / ".git").exists() or shutil.which("git") is None, reason="needs a git checkout and git"
)

BUILD_ROWS = (
    "median build s", "range-function rays", "range-function calls", "evaluations/eigenray", "fan ms",
    "first evaluation ms", "leftovers ms", "rest ms", "leftover brackets", "leftover evaluations",
)
EPOCH_ROWS = (
    "epoch_ms_mean", "epoch_ms_p50", "epoch_ms_p99", "lookup", "marginal", "update", "predict", "ess", "mmse",
    "resample",
)
BUILD_KEYS = {
    "base", "grid", "rounds", "machine", "median_s", "wins", "stage_median_ms", "range_function",
    "grid_max_abs_diff_deg", "nan_equal", "readme_pipeline_max_abs_diff", "build_s",
}
EPOCH_KEYS = {"base", "K", "J", "seeds", "rounds", "machine", "median", "wins", "runs", "per_run"}


def ab(*args, json_out: Path) -> tuple[str, dict]:
    """Run ``tools/ab.py`` with ``--json json_out``: its stdout and its JSON."""
    res = subprocess.run(
        [sys.executable, str(REPO / "tools" / "ab.py"), *args, "--json", str(json_out)],
        capture_output=True, text=True, cwd=REPO, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    return res.stdout, json.loads(json_out.read_text())


def row(stdout: str, name: str) -> list[str]:
    """The base, change and ratio columns of the table row ``name``."""
    (line,) = [line for line in stdout.splitlines() if line.startswith(name + " ")]
    values = line[len(name):].split()
    assert len(values) == 3, line
    return values


def test_build_counts_alike_on_both_sides(tmp_path):
    out, doc = ab("build", "--base", "HEAD", "--rounds", "1", "--seeds", json_out=tmp_path / "b.json")
    assert out.startswith("build_doa_grid, coastal 2400x165, 1 rounds\n")
    assert "grid values: max |diff| 0 deg, nan patterns equal\n" in out
    assert "README pipeline" not in out
    rows = {name: row(out, name) for name in BUILD_ROWS}
    for name in ("range-function rays", "range-function calls", "leftover brackets", "leftover evaluations"):
        base, change, ratio = rows[name]
        assert base == change and int(base) > 0 and ratio == "1.000"
    hist = [line.split(": ", 1)[1] for line in out.splitlines() if " solves by refinement steps: " in line]
    assert len(hist) == 2 and hist[0] == hist[1]
    assert "wins: " in out
    assert set(doc) == BUILD_KEYS
    assert doc["nan_equal"] is True and doc["grid_max_abs_diff_deg"] == 0.0
    assert doc["readme_pipeline_max_abs_diff"] == {}
    for side in ("base", "change"):
        assert set(doc["stage_median_ms"][side]) == {"fan", "first evaluation", "leftovers", "rest"}
        assert set(doc["range_function"][side]) == {
            "rays", "calls", "refine_rays", "roots", "steps", "leftover_brackets", "leftover_evaluations",
        }
        assert len(doc["build_s"][side]) == 1
    assert doc["range_function"]["base"] == doc["range_function"]["change"]


def test_epoch_estimates_identical_on_both_sides(tmp_path):
    out, doc = ab("epoch", "--base", "HEAD", "--rounds", "1", "--seeds", "0", "--J", "200",
                  json_out=tmp_path / "e.json")
    assert out.startswith("K = 4, J = 200, seeds [0], 1 rounds; estimates identical\n")
    assert all(float(v) >= 0 for name in EPOCH_ROWS for v in row(out, name))
    assert float(row(out, "epoch_ms_mean")[0]) > 0
    assert "wins: " in out
    assert set(doc) == EPOCH_KEYS
    assert (doc["K"], doc["J"], doc["seeds"], doc["rounds"], doc["runs"]) == (4, 200, [0], 1, 1)
    for side in ("base", "change"):
        assert set(doc["median"][side]) == {"epoch_ms_mean", "epoch_ms_p50", "epoch_ms_p99", "stages_ms"}
        assert set(doc["median"][side]["stages_ms"]) == set(EPOCH_ROWS[3:])
        assert len(doc["per_run"][side]) == 1


@pytest.mark.parametrize("command", ["epoch", "build"])
def test_a_base_git_cannot_archive_is_one_error_line(command):
    res = subprocess.run(
        [sys.executable, str(REPO / "tools" / "ab.py"), command, "--base", "no-such-rev"],
        capture_output=True, text=True, cwd=REPO, timeout=120,
    )
    assert res.returncode == 2
    # git's own message, on the one line
    assert res.stderr.startswith("error: --base no-such-rev: fatal: ") and res.stderr.count("\n") == 1
    assert res.stdout == ""
