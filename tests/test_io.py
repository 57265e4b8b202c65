import struct

import numpy as np
import pytest

from swfocal import io as sio
from swfocal.environment import PathKind
from swfocal.grid import DoaGrid, build_doa_grid


class TestEnvironmentFile:
    def test_round_trip(self, tmp_path, coastal_wg):
        path = tmp_path / "env.json"
        sio.write_environment(path, coastal_wg)
        back = sio.read_environment(path)
        assert back.ssp.knots == coastal_wg.ssp.knots
        assert back.bottom_depth == coastal_wg.bottom_depth
        assert back.receiver_depth == coastal_wg.receiver_depth

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text('{\n  "ssp_knots": [[0, 1500],,]\n}\n')
        with pytest.raises(sio.EnvFileError, match=r":2:"):
            sio.read_environment(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(
            '{"ssp_knots": [[0,1500],[220,1480]], "bottom_depth_m": 216.5,'
            ' "receiver_depth_m": 150, "extra": 1}'
        )
        with pytest.raises(sio.EnvFileError, match="unknown keys"):
            sio.read_environment(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text('{"ssp_knots": [[0,1500],[220,1480]]}')
        with pytest.raises(sio.EnvFileError, match="missing keys"):
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
        assert np.any(np.isneginf(back.values))
        assert np.array_equal(np.isneginf(back.values), np.isneginf(grid.values))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "grid.bin"
        path.write_bytes(b"NOTAGRID" + b"\x00" * 64)
        with pytest.raises(sio.GridFileError, match="magic"):
            sio.read_grid(path)

    def test_truncated_file(self, tmp_path, iso_wg):
        grid = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 4, 3)
        path = tmp_path / "grid.bin"
        sio.write_grid(path, grid)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(sio.GridFileError, match="truncated"):
            sio.read_grid(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_positive_inf_values_rejected(self, tmp_path, bad):
        path = tmp_path / "grid.bin"
        values = np.zeros((2, 2, 1))
        values[0, 1, 0] = -np.inf  # the impossible sentinel is legal

        def write():
            sio.write_grid(path, DoaGrid((1.0, 2.0, 1.0, 2.0), 2, 2, (PathKind.DP,), values))

        write()
        assert np.array_equal(sio.read_grid(path).values, values)
        values[1, 0, 0] = bad
        write()
        with pytest.raises(sio.GridFileError, match="finite"):
            sio.read_grid(path)

    @pytest.mark.parametrize(
        "roi, n_r, n_d, kinds, why",
        [
            ((100.0, 200.0, 10.0, 20.0), 2, 2, (PathKind.DP, PathKind.DP), "distinct"),
            ((100.0, 200.0, 10.0, 20.0), 2, 2, (), "non-empty"),
            ((200.0, 100.0, 10.0, 20.0), 2, 2, (PathKind.DP,), "range_min < range_max"),
            ((100.0, 200.0, 20.0, 10.0), 2, 2, (PathKind.DP,), "depth_min < depth_max"),
            ((100.0, 200.0, 10.0, 20.0), 1, 2, (PathKind.DP,), "2 points"),
            ((100.0, 200.0, 10.0, 20.0), 2, 1, (PathKind.DP,), "2 points"),
        ],
        ids=["duplicate-kinds", "no-kinds", "reversed-range", "reversed-depth", "one-range", "one-depth"],
    )
    def test_bad_header_rejected(self, tmp_path, roi, n_r, n_d, kinds, why):
        path = tmp_path / "grid.bin"
        path.write_bytes(
            sio.GRID_MAGIC
            + struct.pack("<I", sio.GRID_VERSION)
            + struct.pack("<4d", *roi)
            + struct.pack("<III", n_r, n_d, len(kinds))
            + bytes(k.index for k in kinds)
            + np.zeros(n_r * n_d * len(kinds), dtype="<f8").tobytes()
        )
        with pytest.raises(sio.GridFileError, match=why) as err:
            sio.read_grid(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_trailing_bytes(self, tmp_path, iso_wg):
        grid = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 4, 3)
        path = tmp_path / "grid.bin"
        sio.write_grid(path, grid)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(sio.GridFileError, match="trailing"):
            sio.read_grid(path)


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
        with pytest.raises(ValueError, match=":2:.*non-finite"):
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
        with pytest.raises(ValueError, match="header"):
            sio.read_estimates_csv(path)
