"""File formats: environment JSON, binary DOA grids, observation JSONL,
truth and estimate CSVs, and evaluation reports.  The JSON input rules,
the run configuration's included, live here alone: ``read_json``,
``json_object``, ``number``, ``integer`` and ``string``.  ``number`` reads
the shape of a list too, so a value's shape is checked nowhere else.  Every
reader refuses a bad input with a plain ``ValueError``, and a refused JSON
input reads ``<file>[:<line>]: <key>: <rule>, got <value>``: these rules,
and the value rules of the dataclasses the files fill, raise
``<key>: <rule>, got <value>`` at the key path of the offending element,
such as ``ssp_knots[3][1]``, and the readers here prefix the file, and for
an observation record or a CSV row its line; a CSV value's key is its column.

All angles in files are degrees, all distances meters, all times seconds.
The binary grid layout, version 2, is little-endian: a 56-byte header,
one ``struct.Struct`` of an 8-byte magic, a u32 version, the region of
interest as four f64 (range_min, range_max, depth_min, depth_max) and u32
counts N_r, N_d and K, then N_r x N_d x K f64 values in row-major order,
angles in [-90, 90] with ``nan`` marking geometrically impossible entries.
The K layers are the first K paths in canonical order (SB, DP, BB, SBB),
so the file names no path.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from swfocal.assoc import ObservationSet
from swfocal.environment import SoundSpeedProfile, Waveguide
from swfocal.grid import DoaGrid

__all__ = [
    "number",
    "integer",
    "string",
    "json_object",
    "read_json",
    "read_environment",
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
GRID_VERSION = 2
_GRID_HEADER = struct.Struct("<8sI4d3I")  # magic, version, roi, counts N_r, N_d and K


def number(v, key: str, shape=()):
    """``v`` as a float, or for a ``shape`` of list lengths, outermost first and ``None`` for any, as nested
    tuples of floats; each value must be a JSON number, and a bool is none.  A value of another shape is
    refused at its own key path, such as ``ssp_knots[3][1]``, quoting that value alone."""
    if shape and isinstance(v, list) and shape[0] in (None, len(v)):
        return tuple(number(x, f"{key}[{i}]", shape[1:]) for i, x in enumerate(v))
    if shape or isinstance(v, bool) or not isinstance(v, (int, float)):
        lists = "lists of ".join("" if n is None else f"{n} " for n in shape)
        raise ValueError(f"{key}: must be {f'a list of {lists}numbers' if shape else 'a JSON number'}, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{key}: must be a JSON number in the float range") from None


def integer(v, key: str, least: int = 0) -> int:
    """``v`` as an int of at least ``least``; a float must be integral and a bool is no int."""
    if (
        isinstance(v, bool)
        or not isinstance(v, (int, float))
        or (isinstance(v, float) and not v.is_integer())  # nan and inf too
        or v < least
    ):
        raise ValueError(f"{key}: must be an integer of at least {least}, got {v!r}")
    return int(v)


def string(v, key: str) -> str:
    """``v``, which must be a JSON string."""
    if not isinstance(v, str):
        raise ValueError(f"{key}: must be a string, got {v!r}")
    return v


def json_object(doc, key: str, read: dict, required=()) -> dict:
    """JSON object ``doc``, refused under ``key``, with each value as ``read[k](value, k)``:
    unknown keys are checked first, then each value, then the ``required`` keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{key}: must be a JSON object, got {doc!r}")
    if unknown := set(doc) - set(read):
        raise ValueError(f"{key}: unknown keys {sorted(unknown)}")
    values = {k: read[k](v, k) for k, v in doc.items()}
    if missing := set(required) - set(doc):
        raise ValueError(f"{key}: missing keys {sorted(missing)}")
    return values


def read_json(path):
    """The JSON value that file ``path`` holds; a decode error is refused naming ``path:line:col``,
    and any other, such as an integer of more digits than ``int`` converts, naming ``path``."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def read_environment(path) -> Waveguide:
    """Load a waveguide from a JSON environment description.

    The file holds ``ssp_knots`` (list of [depth_m, speed_mps] pairs),
    ``bottom_depth_m`` and ``receiver_depth_m``, all JSON numbers.  Unknown
    keys are rejected; parse errors carry line context.
    """
    doc = read_json(path)
    read = {"ssp_knots": lambda v, key: number(v, key, (None, 2)), "bottom_depth_m": number, "receiver_depth_m": number}
    try:
        doc = json_object(doc, "environment", read, required=read)
        return Waveguide(
            ssp=SoundSpeedProfile(knots=doc["ssp_knots"]),
            bottom_depth=doc["bottom_depth_m"],
            receiver_depth=doc["receiver_depth_m"],
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def write_grid(path, grid: DoaGrid) -> None:
    """Write ``grid`` in the binary layout, straight from its values' memory."""
    with open(path, "wb") as f:
        f.write(_GRID_HEADER.pack(GRID_MAGIC, GRID_VERSION, *grid.roi, *grid.values.shape))
        f.write(np.ascontiguousarray(grid.values, dtype="<f8"))  # a copy only if not C-ordered <f8


def read_grid(path) -> DoaGrid:
    """Read a grid file, its values straight into the grid's one array.

    The header is one read, refused field by field (``magic``, ``header``,
    ``version``); its ``counts`` must give the values the file holds, which
    is checked against the file's size before anything is allocated for
    the values, and the values are checked as angles without a whole-grid
    temporary.
    """
    with open(path, "rb") as f:
        head = f.read(_GRID_HEADER.size)
        if head[:8] != GRID_MAGIC:
            raise ValueError(f"{path}: magic: must be {GRID_MAGIC!r}, got {head[:8]!r}")
        if len(head) != _GRID_HEADER.size:
            raise ValueError(f"{path}: header: must be {_GRID_HEADER.size} bytes, got {len(head)}")
        _, version, *roi, n_r, n_d, n_k = _GRID_HEADER.unpack(head)
        if version != GRID_VERSION:
            raise ValueError(
                f"{path}: version: must be {GRID_VERSION} (rebuild the grid with `swfocal build-grid`), got {version}"
            )
        size, left = 8 * n_r * n_d * n_k, os.fstat(f.fileno()).st_size - f.tell()
        if left == size:
            values = np.empty((n_r, n_d, n_k))
            left = f.readinto(values)  # less if the file shrank since
        if left != size:
            raise ValueError(
                f"{path}: counts: must give the {left / 8:.16g} values the file holds, got {[n_r, n_d, n_k]}"
            )
    if sys.byteorder != "little":
        values.byteswap(inplace=True)
    # nan is skipped by both reductions
    lo, hi = np.fmin.reduce(values, axis=None, initial=0.0), np.fmax.reduce(values, axis=None, initial=0.0)
    if not -90.0 <= lo <= hi <= 90.0:
        raise ValueError(f"{path}: values: must be angles in [-90, 90] or nan, got {lo if lo < -90.0 else hi}")
    try:
        return DoaGrid(tuple(roi), values)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


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


_RECORD = {"t_index": integer, "time_s": number, "doas": lambda v, key: ObservationSet(number(v, key, (None,))).z}


def read_observations(path) -> list[tuple[int, float, np.ndarray]]:
    """Read (t_index, time_s, doas) records, each checked as an ``ObservationSet``.

    ``t_index`` is an integer of at least 0, and ``time_s`` and the doas JSON numbers;
    ``time_s`` is finite and strictly increasing from line to line.
    """
    records = []
    with open(path) as f:
        for lineno, line in enumerate(_decoded(path, f), start=1):
            if not line.strip():
                continue
            try:
                doc = json_object(json.loads(line), "record", _RECORD, required=_RECORD)
                t = doc["time_s"]
                if not math.isfinite(t):
                    raise ValueError(f"time_s: must be finite, got {t}")
                if records and not t > records[-1][1]:
                    raise ValueError(f"time_s: must increase from line to line, got {t} after {records[-1][1]}")
            except ValueError as e:  # a JSON decode error too
                raise ValueError(f"{path}:{lineno}: {e}") from e
            records.append((doc["t_index"], t, doc["doas"]))
    return records


def _decoded(path, lines):
    """The ``lines`` of text file ``path``, a decode error refused naming ``path``."""
    try:
        yield from lines
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from e


def write_track_csv(path, rows) -> None:
    """Truth track CSV: time_s,range_m,depth_m,speed_mps."""
    _write_csv(path, ["time_s", "range_m", "depth_m", "speed_mps"], rows)


def read_track_csv(path) -> np.ndarray:
    """Read a truth CSV into an (n, 4) array of time, range, depth, speed; the times must increase."""
    return _read_csv(path, ["time_s", "range_m", "depth_m", "speed_mps"], increasing=True)


def write_estimates_csv(path, rows) -> None:
    """Estimates CSV: time_s,range_m,depth_m,speed_mps,ess."""
    _write_csv(path, ["time_s", "range_m", "depth_m", "speed_mps", "ess"], rows)


def read_estimates_csv(path) -> np.ndarray:
    return _read_csv(path, ["time_s", "range_m", "depth_m", "speed_mps", "ess"])


def _write_csv(path, header: list[str], rows) -> None:
    """One line per row, each value written as the shortest repr of its float."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            values = [repr(float(v)) for v in row]
            if len(values) != len(header):
                raise ValueError(f"{path}: expected {len(header)} values per row, got {len(values)}")
            w.writerow(values)


def _read_csv(path, expected_header: list[str], increasing: bool = False) -> np.ndarray:
    """Rows of as many finite values as ``expected_header``; with ``increasing``, first values that increase."""
    n = len(expected_header)
    with open(path, newline="") as f:
        reader = csv.reader(_decoded(path, f))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        rows = []
        for row in filter(None, reader):  # blank lines are skipped
            at = f"{path}:{reader.line_num}"
            if len(row) != n:
                raise ValueError(f"{at}: expected {n} values, got {len(row)}")
            values = [_finite(cell, at, key) for cell, key in zip(row, expected_header)]
            if increasing and rows and not values[0] > rows[-1][0]:
                raise ValueError(
                    f"{at}: {expected_header[0]}: must increase from line to line, got {values[0]} after {rows[-1][0]}"
                )
            rows.append(values)
    return np.array(rows).reshape(-1, n)


def _finite(cell: str, at: str, key: str) -> float:
    """CSV ``cell`` as a finite float, refused at ``<file>:<line>`` ``at`` under column ``key``."""
    try:
        if math.isfinite(v := float(cell)):
            return v
    except ValueError:
        pass
    raise ValueError(f"{at}: {key}: must be a finite number, got {cell!r}")
