"""File formats: environment JSON, binary DOA grids, observation JSONL,
truth and estimate CSVs, and evaluation reports.

All angles in files are degrees, all distances meters, all times seconds.
The binary grid layout is little-endian: an 8-byte magic, a u32 version,
the region of interest as four f64 (range_min, range_max, depth_min,
depth_max), u32 counts N_r, N_d and K, K path-kind codes (u8 each), then
N_r x N_d x K f64 values in row-major order with ``-inf`` marking
geometrically impossible entries.
"""

from __future__ import annotations

import csv
import io as _io
import json
import struct
from pathlib import Path

import numpy as np

from swfocal.assoc import ObservationSet
from swfocal.environment import PathKind, SoundSpeedProfile, Waveguide
from swfocal.grid import DoaGrid

__all__ = [
    "EnvFileError",
    "GridFileError",
    "read_environment",
    "write_environment",
    "read_grid",
    "write_grid",
    "read_observations",
    "write_observations",
    "read_track_csv",
    "write_track_csv",
    "write_estimates_csv",
    "read_estimates_csv",
]

GRID_MAGIC = b"SWFOCGRD"
GRID_VERSION = 1

_ENV_KEYS = {"ssp_knots", "bottom_depth_m", "receiver_depth_m"}


class EnvFileError(ValueError):
    """Malformed environment description file."""


class GridFileError(ValueError):
    """Malformed or truncated binary grid file."""


def read_environment(path) -> Waveguide:
    """Load a waveguide from a JSON environment description.

    The file holds ``ssp_knots`` (list of [depth_m, speed_mps] pairs),
    ``bottom_depth_m`` and ``receiver_depth_m``.  Unknown keys are
    rejected; parse errors carry line context.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise EnvFileError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise EnvFileError(f"{path}: environment file must hold a JSON object")
    unknown = set(doc) - _ENV_KEYS
    if unknown:
        raise EnvFileError(f"{path}: unknown keys {sorted(unknown)}")
    missing = _ENV_KEYS - set(doc)
    if missing:
        raise EnvFileError(f"{path}: missing keys {sorted(missing)}")
    try:
        knots = tuple((float(z), float(c)) for z, c in doc["ssp_knots"])
        return Waveguide(
            ssp=SoundSpeedProfile(knots=knots),
            bottom_depth=float(doc["bottom_depth_m"]),
            receiver_depth=float(doc["receiver_depth_m"]),
        )
    except (TypeError, ValueError) as e:
        raise EnvFileError(f"{path}: {e}") from e


def write_environment(path, wg: Waveguide) -> None:
    doc = {
        "ssp_knots": [[z, c] for z, c in wg.ssp.knots],
        "bottom_depth_m": wg.bottom_depth,
        "receiver_depth_m": wg.receiver_depth,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_grid(path, grid: DoaGrid) -> None:
    with open(path, "wb") as f:
        f.write(GRID_MAGIC)
        f.write(struct.pack("<I", GRID_VERSION))
        f.write(struct.pack("<4d", *grid.roi))
        f.write(struct.pack("<III", grid.n_r, grid.n_d, len(grid.kinds)))
        f.write(bytes(k.index for k in grid.kinds))
        f.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_grid(path) -> DoaGrid:
    raw = Path(path).read_bytes()
    buf = _io.BytesIO(raw)

    def take(n: int, what: str) -> bytes:
        b = buf.read(n)
        if len(b) != n:
            raise GridFileError(f"{path}: truncated while reading {what}")
        return b

    if take(8, "magic") != GRID_MAGIC:
        raise GridFileError(f"{path}: not a DOA grid file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != GRID_VERSION:
        raise GridFileError(f"{path}: unsupported grid version {version}")
    roi = struct.unpack("<4d", take(32, "roi"))
    n_r, n_d, n_k = struct.unpack("<III", take(12, "counts"))
    try:
        kinds = tuple(PathKind(b) for b in take(n_k, "path kinds"))
    except ValueError as e:
        raise GridFileError(f"{path}: {e}") from e
    data = take(8 * n_r * n_d * n_k, "values")
    if buf.read(1):
        raise GridFileError(f"{path}: trailing bytes after grid values")
    values = np.frombuffer(data, dtype="<f8").astype(float).reshape(n_r, n_d, n_k)
    if np.any(np.isnan(values) | (values == np.inf)):
        raise GridFileError(f"{path}: grid values must be finite or -inf")
    try:
        return DoaGrid(roi=roi, n_r=n_r, n_d=n_d, kinds=kinds, values=values)
    except ValueError as e:
        raise GridFileError(f"{path}: {e}") from e


def write_observations(path, records) -> None:
    """Write DOA observation records as JSON lines.

    ``records`` yields (t_index, time_s, doas) with ``doas`` sorted in
    descending order.
    """
    with open(path, "w") as f:
        for t_index, time_s, doas in records:
            f.write(
                json.dumps(
                    {
                        "t_index": int(t_index),
                        "time_s": float(time_s),
                        "doas": [float(a) for a in doas],
                    }
                )
                + "\n"
            )


def read_observations(path) -> list[tuple[int, float, np.ndarray]]:
    """Read (t_index, time_s, doas) records, each checked as an ``ObservationSet``."""
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                rec = (
                    int(doc["t_index"]),
                    float(doc["time_s"]),
                    ObservationSet(z=[float(a) for a in doc["doas"]]).z,
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: bad observation record: {e}") from e
            records.append(rec)
    return records


def write_track_csv(path, rows) -> None:
    """Truth track CSV: time_s,range_m,depth_m,speed_mps."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time_s", "range_m", "depth_m", "speed_mps"])
        for t, rng, dep, spd in rows:
            w.writerow([repr(float(t)), repr(float(rng)), repr(float(dep)), repr(float(spd))])


def read_track_csv(path) -> np.ndarray:
    """Read a truth CSV into an (n, 4) array of time, range, depth, speed."""
    return _read_csv(path, ["time_s", "range_m", "depth_m", "speed_mps"])


def write_estimates_csv(path, rows) -> None:
    """Estimates CSV: time_s,range_m,depth_m,speed_mps,ess."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time_s", "range_m", "depth_m", "speed_mps", "ess"])
        for t, rng, dep, spd, ess in rows:
            w.writerow(
                [
                    repr(float(t)),
                    repr(float(rng)),
                    repr(float(dep)),
                    repr(float(spd)),
                    repr(float(ess)),
                ]
            )


def read_estimates_csv(path) -> np.ndarray:
    return _read_csv(path, ["time_s", "range_m", "depth_m", "speed_mps", "ess"])


def _read_csv(path, expected_header: list[str]) -> np.ndarray:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    return np.array(rows).reshape(-1, len(expected_header))
