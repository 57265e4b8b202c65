import copy
import functools
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swfocal import io as sio
from swfocal.cli import load_config
from swfocal.environment import PathKind
from swfocal.grid import DoaGrid, build_doa_grid


class TestEnvironmentFile:
    def test_round_trip(self, tmp_path, coastal_wg):
        path = tmp_path / "env.json"
        doc = {
            "ssp_knots": [list(knot) for knot in coastal_wg.ssp.knots],
            "bottom_depth_m": coastal_wg.bottom_depth,
            "receiver_depth_m": coastal_wg.receiver_depth,
        }
        path.write_text(json.dumps(doc))
        back = sio.read_environment(path)
        assert back.ssp.knots == coastal_wg.ssp.knots
        assert back.bottom_depth == coastal_wg.bottom_depth
        assert back.receiver_depth == coastal_wg.receiver_depth

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text('{\n  "ssp_knots": [[0, 1500],,]\n}\n')
        with pytest.raises(ValueError, match=r":2:"):
            sio.read_environment(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(
            '{"ssp_knots": [[0,1500],[220,1480]], "bottom_depth_m": 216.5,'
            ' "receiver_depth_m": 150, "extra": 1}'
        )
        with pytest.raises(ValueError, match="unknown keys"):
            sio.read_environment(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text('{"ssp_knots": [[0,1500],[220,1480]]}')
        with pytest.raises(ValueError, match="missing keys"):
            sio.read_environment(path)

    @pytest.mark.parametrize(
        "key, value, at",
        [
            ("receiver_depth_m", True, "receiver_depth_m"),
            ("bottom_depth_m", "216.5", "bottom_depth_m"),
            ("ssp_knots", [[0, 1500], [220, "1480"]], "ssp_knots[1][1]"),
            ("ssp_knots", [[0, 1500], [220, False]], "ssp_knots[1][1]"),
        ],
    )
    def test_values_must_be_json_numbers(self, tmp_path, key, value, at):
        # the key path of the offending element, and that element alone
        doc = {"ssp_knots": [[0, 1500], [220, 1480]], "bottom_depth_m": 216.5, "receiver_depth_m": 150}
        doc[key] = value
        path = tmp_path / "env.json"
        path.write_text(json.dumps(doc))
        bad = value[1][1] if key == "ssp_knots" else value
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {at}: must be a JSON number, got {bad!r}')}$"):
            sio.read_environment(path)


class TestGridFile:
    def test_round_trip_bit_identical(self, tmp_path, iso_wg):
        grid = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 11, 9)
        path = tmp_path / "grid.bin"
        sio.write_grid(path, grid)
        back = sio.read_grid(path)
        assert back.roi == grid.roi
        assert back.kinds == grid.kinds
        assert np.array_equal(back.values, grid.values)

    def test_sentinel_survives_round_trip(self, tmp_path, coastal_wg):
        grid = build_doa_grid(coastal_wg, (2200.0, 2400.0, 50.0, 80.0), 6, 4)
        path = tmp_path / "grid.bin"
        sio.write_grid(path, grid)
        back = sio.read_grid(path)
        assert np.any(np.isnan(back.values))
        assert np.array_equal(np.isnan(back.values), np.isnan(grid.values))

    def test_layers_are_the_first_paths_and_the_header_names_none(self, tmp_path, iso_wg):
        grid = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 4, 3)
        path = tmp_path / "grid.bin"
        for k in (1, 2, 4):
            sio.write_grid(path, grid.select_kinds(tuple(PathKind)[:k]))
            assert path.stat().st_size == 8 + 4 + 32 + 12 + 8 * 4 * 3 * k
            back = sio.read_grid(path)
            assert back.kinds == tuple(PathKind)[:k]
            assert back.values.tobytes() == grid.values[:, :, :k].tobytes()

    def test_version_1_file_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "grid.bin"
        path.write_bytes(
            sio.GRID_MAGIC
            + struct.pack("<I", 1)
            + struct.pack("<4d", 100.0, 200.0, 10.0, 20.0)
            + struct.pack("<III", 2, 2, 1)
            + bytes([PathKind.DP.value])
            + np.zeros(4, dtype="<f8").tobytes()
        )
        with pytest.raises(ValueError) as err:
            sio.read_grid(path)
        assert str(err.value) == f"{path}: version: must be 2 (rebuild the grid with `swfocal build-grid`), got 1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "grid.bin"
        path.write_bytes(b"NOTAGRID" + b"\x00" * 64)
        with pytest.raises(ValueError) as err:
            sio.read_grid(path)
        assert str(err.value) == f"{path}: magic: must be b'SWFOCGRD', got b'NOTAGRID'"

    @pytest.mark.parametrize("size", [0, 5, 8, 55])
    def test_a_file_shorter_than_its_header_is_refused(self, tmp_path, size):
        # the magic is checked on what was read, so a file of under 8 bytes fails it
        path = tmp_path / "grid.bin"
        path.write_bytes((sio.GRID_MAGIC + bytes(48))[:size])
        with pytest.raises(ValueError) as err:
            sio.read_grid(path)
        if size < 8:
            assert str(err.value) == f"{path}: magic: must be b'SWFOCGRD', got {path.read_bytes()!r}"
        else:
            assert str(err.value) == f"{path}: header: must be 56 bytes, got {size}"

    def test_truncated_file(self, tmp_path, iso_wg):
        grid = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 4, 3)
        path = tmp_path / "grid.bin"
        sio.write_grid(path, grid)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError) as err:
            sio.read_grid(path)
        assert str(err.value) == f"{path}: counts: must give the 46 values the file holds, got [4, 3, 4]"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_values_rejected(self, tmp_path, bad):
        path = tmp_path / "grid.bin"
        values = np.zeros((2, 2, 1))
        values[0, 1, 0] = np.nan  # the impossible marker is legal

        def write():
            sio.write_grid(path, DoaGrid((1.0, 2.0, 1.0, 2.0), values))

        write()
        assert np.array_equal(sio.read_grid(path).values, values, equal_nan=True)
        values[1, 0, 0] = bad
        write()
        with pytest.raises(ValueError, match=r"values: must be angles in \[-90, 90\] or nan, got -?inf$"):
            sio.read_grid(path)

    @pytest.mark.parametrize("bad", [1e300, 90.5, -90.5])
    def test_a_finite_value_that_is_no_angle_is_refused(self, tmp_path, bad):
        # a finite value beyond +-90 degrees would overflow the tracker's
        # densities, or be clipped by the simulator unseen; both edges are angles
        path = tmp_path / "grid.bin"
        values = np.full((2, 2, 1), 90.0)
        values[0, 0, 0], values[0, 1, 0] = -90.0, np.nan
        sio.write_grid(path, DoaGrid((1.0, 2.0, 1.0, 2.0), values))
        assert np.array_equal(sio.read_grid(path).values, values, equal_nan=True)
        values[1, 1, 0] = bad
        sio.write_grid(path, DoaGrid((1.0, 2.0, 1.0, 2.0), values))
        with pytest.raises(ValueError) as err:
            sio.read_grid(path)
        assert str(err.value) == f"{path}: values: must be angles in [-90, 90] or nan, got {bad}"

    @pytest.mark.parametrize(
        "roi, n_r, n_d, n_k, why",
        [
            ((100.0, 200.0, 10.0, 20.0), 2, 2, 5, "K in 1..4"),
            ((100.0, 200.0, 10.0, 20.0), 2, 2, 0, "K in 1..4"),
            ((200.0, 100.0, 10.0, 20.0), 2, 2, 1, "roi: the range span must be positive and finite"),
            ((100.0, 200.0, 20.0, 10.0), 2, 2, 1, "roi: the depth span must be positive and finite"),
            ((100.0, 200.0, 10.0, 20.0), 1, 2, 1, "2 points"),
            ((100.0, 200.0, 10.0, 20.0), 2, 1, 1, "2 points"),
        ],
        ids=["too-many-kinds", "no-kinds", "reversed-range", "reversed-depth", "one-range", "one-depth"],
    )
    def test_bad_header_rejected(self, tmp_path, roi, n_r, n_d, n_k, why):
        path = tmp_path / "grid.bin"
        path.write_bytes(
            sio.GRID_MAGIC
            + struct.pack("<I", sio.GRID_VERSION)
            + struct.pack("<4d", *roi)
            + struct.pack("<III", n_r, n_d, n_k)
            + np.zeros(n_r * n_d * n_k, dtype="<f8").tobytes()
        )
        with pytest.raises(ValueError, match=why) as err:
            sio.read_grid(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_oversized_header_fails_before_allocating(self, tmp_path):
        # 2**32 - 1 squared values would need 2**67 bytes: the file's size
        # rejects them before any array is made
        path = tmp_path / "grid.bin"
        n = 2**32 - 1
        path.write_bytes(
            sio.GRID_MAGIC
            + struct.pack("<I", sio.GRID_VERSION)
            + struct.pack("<4d", 100.0, 200.0, 10.0, 20.0)
            + struct.pack("<III", n, n, 1)
            + np.zeros(6, dtype="<f8").tobytes()
        )
        assert path.stat().st_size < 120
        with pytest.raises(ValueError) as err:
            sio.read_grid(path)
        assert str(err.value) == f"{path}: counts: must give the 6 values the file holds, got [{n}, {n}, 1]"

    def test_trailing_bytes(self, tmp_path, iso_wg):
        grid = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 4, 3)
        path = tmp_path / "grid.bin"
        sio.write_grid(path, grid)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError) as err:
            sio.read_grid(path)
        assert str(err.value) == f"{path}: counts: must give the 48.125 values the file holds, got [4, 3, 4]"


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, from ``tracemalloc``."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridMemory:
    """Each step of the grid's round trip holds at most the grid itself."""

    @pytest.fixture
    def grid(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-40.0, 40.0, (600, 165, 4))
        values[values > 35.0] = np.nan
        return DoaGrid((100.0, 2500.0, 10.0, 175.0), values)

    def test_write_makes_no_copy(self, tmp_path, grid):
        path = tmp_path / "grid.bin"
        _, peak = traced_peak(lambda: sio.write_grid(path, grid))
        assert peak < 0.01 * grid.values.nbytes + 8192
        assert sio.read_grid(path).values.tobytes() == grid.values.tobytes()

    def test_read_holds_one_array(self, tmp_path, grid):
        path = tmp_path / "grid.bin"
        sio.write_grid(path, grid)
        back, peak = traced_peak(lambda: sio.read_grid(path))
        assert peak <= 1.2 * grid.values.nbytes
        assert back.values.tobytes() == grid.values.tobytes()
        assert back.values.flags.c_contiguous and back.values.flags.writeable

    def test_selecting_every_layer_shares_the_values(self, grid):
        same, peak = traced_peak(lambda: grid.select_kinds(grid.kinds))
        assert peak < 0.01 * grid.values.nbytes
        assert np.shares_memory(same.values, grid.values)


class TestRecordFiles:
    def test_observation_round_trip(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        records = [(0, 0.0, np.array([12.5, -3.0])), (2, 4.096, np.array([]))]
        sio.write_observations(path, records)
        back = sio.read_observations(path)
        assert back[0][0] == 0 and back[1][0] == 2
        assert np.array_equal(back[0][2], records[0][2])
        assert back[1][2].size == 0

    def test_observation_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"t_index": 0, "time_s": 0.0, "doas": []}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            sio.read_observations(path)

    def test_observation_non_finite_doa_rejected(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text(
            '{"t_index": 0, "time_s": 0.0, "doas": [3.0]}\n'
            '{"t_index": 1, "time_s": 2.0, "doas": [NaN, 1.0]}\n'
        )
        with pytest.raises(ValueError, match=":2: doas: observed angles must be finite"):
            sio.read_observations(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_observation_non_finite_time_rejected(self, tmp_path, bad):
        path = tmp_path / "obs.jsonl"
        path.write_text(
            '{"t_index": 0, "time_s": 0.0, "doas": [3.0]}\n'
            f'{{"t_index": 1, "time_s": {bad}, "doas": [1.0]}}\n'
        )
        with pytest.raises(ValueError, match=":2: time_s: must be finite, got "):
            sio.read_observations(path)

    @pytest.mark.parametrize("second", [2.048, 0.0])
    def test_observation_times_must_increase_from_line_to_line(self, tmp_path, second):
        path = tmp_path / "obs.jsonl"
        path.write_text(
            '{"t_index": 0, "time_s": 0.0, "doas": [3.0]}\n'
            '{"t_index": 2, "time_s": 4.096, "doas": [3.0]}\n'
            f'{{"t_index": 1, "time_s": {second}, "doas": [1.0]}}\n'
        )
        with pytest.raises(ValueError, match=f":3: time_s: must increase from line to line, got {second} after 4.096"):
            sio.read_observations(path)

    @pytest.mark.parametrize(
        "line, why",
        [
            ("[0, 0.0, [3.0]]", "record: must be a JSON object"),
            ('{"t_index": 0, "time_s": 0.0}', r"record: missing keys \['doas'\]"),
            ('{"t_index": 0, "time_s": 0.0, "doas": [3.0], "snr": 1}', r"record: unknown keys \['snr'\]"),
            ('{"t_index": 0, "time_s": 0.0, "doas": 3.0}', "doas: must be a list of numbers, got 3.0"),
            ('{"t_index": 0, "time_s": 0.0, "doas": [[3.0], [1.0]]}', r"doas\[0\]: must be a JSON number, got \[3.0\]"),
            ('{"t_index": -1, "time_s": 0.0, "doas": [3.0]}', "t_index: must be an integer of at least 0"),
            ('{"t_index": 1.5, "time_s": 0.0, "doas": [3.0]}', "t_index: must be an integer of at least 0"),
            ('{"t_index": true, "time_s": 0.0, "doas": [3.0]}', "t_index: must be an integer of at least 0"),
            ('{"t_index": [0], "time_s": 0.0, "doas": [3.0]}', "t_index: must be an integer of at least 0"),
            ('{"t_index": 2.0, "time_s": 0.0, "doas": [3.0]}', None),
            ('{"t_index": 0, "time_s": 0.0, "doas": [1, 3]}', "doas: observations must be sorted in descending order"),
            ('{"t_index": 0, "time_s": 0.0, "doas": [95]}', r"doas: observed angles must lie in \[-90, 90\)"),
            ('{"t_index": 0, "time_s": 0.0, "doas": [NaN]}', "doas: observed angles must be finite"),
            ('{"t_index": 0, "time_s": NaN, "doas": [3.0]}', "time_s: must be finite, got nan"),
        ],
        ids=[
            "array", "missing-doas", "unknown-key", "doas-number", "doas-nested",
            "t_index-negative", "t_index-fraction", "t_index-bool", "t_index-list", "t_index-integral-float",
            "doas-ascending", "doas-beyond-90", "doas-nan", "time_s-nan",
        ],
    )
    def test_observation_record_is_an_object_of_its_three_keys(self, tmp_path, line, why):
        path = tmp_path / "obs.jsonl"
        path.write_text(line + "\n")
        if why is None:  # read, its t_index as an int
            ((t_index, *_),) = sio.read_observations(path)
            assert t_index == 2 and type(t_index) is int
            return
        with pytest.raises(ValueError, match=f"^{path}:1: {why}"):
            sio.read_observations(path)

    def test_observation_unsorted_record_rejected(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text(
            '{"t_index": 0, "time_s": 0.0, "doas": [3.0, -1.0]}\n'
            '{"t_index": 1, "time_s": 2.0, "doas": [-1.0, 3.0]}\n'
        )
        with pytest.raises(ValueError, match=":2:.*descending"):
            sio.read_observations(path)

    def test_observation_out_of_range_record_rejected(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text(
            '{"t_index": 0, "time_s": 0.0, "doas": [3.0]}\n'
            '{"t_index": 1, "time_s": 2.0, "doas": [90.0, 1.0]}\n'
        )
        with pytest.raises(ValueError, match=r":2:.*\[-90, 90\)"):
            sio.read_observations(path)

    @pytest.mark.parametrize(
        "record, key, rule",
        [
            ('"t_index": 1, "time_s": "3", "doas": [1.0]', "time_s", "a JSON number, got '3'"),
            ('"t_index": 1, "time_s": 2.0, "doas": ["10", true]', "doas[0]", "a JSON number, got '10'"),
            ('"t_index": 1, "time_s": 2.0, "doas": [true]', "doas[0]", "a JSON number, got True"),
            ('"t_index": 2.7, "time_s": 2.0, "doas": [1.0]', "t_index", "an integer"),
            ('"t_index": true, "time_s": 2.0, "doas": [1.0]', "t_index", "an integer"),
        ],
        ids=["time_s-string", "doas-string-and-bool", "doas-bool", "t_index-fraction", "t_index-bool"],
    )
    def test_observation_values_must_be_json_numbers(self, tmp_path, record, key, rule):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"t_index": 0, "time_s": 0.0, "doas": [3.0]}\n{' + record + "}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {key}: must be {rule}')}"):
            sio.read_observations(path)

    def test_track_csv_round_trip(self, tmp_path):
        path = tmp_path / "truth.csv"
        rows = [(0.0, 2000.0, 60.0, -2.5), (2.048, 1994.88, 60.0, -2.5)]
        sio.write_track_csv(path, rows)
        back = sio.read_track_csv(path)
        assert np.array_equal(back, np.array(rows))

    def test_estimates_csv_round_trip(self, tmp_path):
        path = tmp_path / "est.csv"
        rows = [(0.0, 2000.0, 60.0, -2.5, 9000.0)]
        sio.write_estimates_csv(path, rows)
        back = sio.read_estimates_csv(path)
        assert np.array_equal(back, np.array(rows))

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("time,range\n0,1\n")
        with pytest.raises(ValueError) as err:
            sio.read_estimates_csv(path)
        want = "expected header ['time_s', 'range_m', 'depth_m', 'speed_mps', 'ess'], got ['time', 'range']"
        assert str(err.value) == f"{path}: {want}"

    def test_csv_row_width_must_match_the_header(self, tmp_path):
        # four 3-value rows hold 12 values, which would reshape to three 4-value rows
        path = tmp_path / "truth.csv"
        path.write_text("time_s,range_m,depth_m,speed_mps\n0,1,2\n1,2,3\n2,3,4\n3,4,5\n")
        with pytest.raises(ValueError, match=r"truth\.csv:2: expected 4 values, got 3"):
            sio.read_track_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "", "1e", "0x10"])
    def test_csv_values_must_be_finite_numbers(self, tmp_path, bad):
        path = tmp_path / "est.csv"
        path.write_text(f"time_s,range_m,depth_m,speed_mps,ess\n0,1,2,3,4\n\n2,{bad},2,3,4\n")
        with pytest.raises(ValueError, match=rf"est\.csv:4: range_m: must be a finite number, got {re.escape(repr(bad))}$"):
            sio.read_estimates_csv(path)

    def test_truth_times_must_increase_and_estimate_times_need_not(self, tmp_path):
        truth, est = tmp_path / "truth.csv", tmp_path / "est.csv"
        truth.write_text("time_s,range_m,depth_m,speed_mps\n2,1,2,3\n\n2,5,6,7\n")
        est.write_text("time_s,range_m,depth_m,speed_mps,ess\n2,1,2,3,4\n\n2,5,6,7,8\n")
        with pytest.raises(ValueError, match=r"truth\.csv:4: time_s: must increase from line to line, got 2\.0 after 2\.0$"):
            sio.read_track_csv(truth)
        assert sio.read_estimates_csv(est)[:, 0].tolist() == [2.0, 2.0]

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("time_s,range_m,depth_m,speed_mps\n0,1,2,3\n\n4,5,6,7\n")
        assert sio.read_track_csv(path).tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# per input kind: file name, a valid document and its reader, which refuses with a ValueError
READERS = {
    "config": ("run.json", json.loads((CONFIGS / "default_run.json").read_text()), load_config),
    "environment": ("env.json", json.loads((CONFIGS / "coastal_216m_env.json").read_text()), sio.read_environment),
    "observations": ("obs.jsonl", {"t_index": 0, "time_s": 0.0, "doas": [3.0, -1.0]}, sio.read_observations),
}


def _key_paths(doc, path=()):
    """Every key of the JSON object ``doc`` as a path of keys, a block's own keys after the block."""
    for k, v in doc.items():
        yield (*path, k)
        if isinstance(v, dict):
            yield from _key_paths(v, (*path, k))


def _depth(v) -> int:
    """How deep ``v`` nests lists, its first value standing for all."""
    return 1 + _depth(v[0]) if isinstance(v, list) else 0


def _of_another_shape_or_type(v):
    """JSON values of another shape or type than ``v``: lists nested to another depth, numbers at the
    bottom (so a number where a list belongs, a list where a number does), booleans, strings and null."""
    numbers = st.integers(-(10**6), 10**6) | st.floats(-1e6, 1e6)
    nested = [
        functools.reduce(lambda s, _: st.lists(s, min_size=1, max_size=3), range(depth), numbers)
        for depth in range(4)
        if isinstance(v, (str, dict)) or depth != _depth(v)
    ]
    return st.one_of(*nested, st.booleans(), st.none(), *([] if isinstance(v, str) else [st.text("xyz", max_size=3)]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    case=st.sampled_from([(kind, keys) for kind, (_, doc, *_) in READERS.items() for keys in _key_paths(doc)]),
    data=st.data(),
)
def test_a_value_of_another_shape_or_type_is_refused_by_file_and_key(tmp_path_factory, case, data):
    kind, keys = case
    name, doc, read = READERS[kind]
    doc = copy.deepcopy(doc)
    block = functools.reduce(dict.__getitem__, keys[:-1], doc)
    block[keys[-1]] = data.draw(_of_another_shape_or_type(block[keys[-1]]), label=".".join(keys))
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(json.dumps(doc) + "\n")  # one line: one observation record
    with pytest.raises(ValueError) as e:
        read(path)
    # one form: the file (and a record's line), the key path, the rule
    line = ":1" if kind == "observations" else ""
    assert re.match(rf"{re.escape(f'{path}{line}: {keys[-1]}')}(\[\d+\])*: ", str(e.value)), str(e.value)
