import re

import numpy as np
import pytest

from swfocal.assoc import ModelParams, ObservationSet
from swfocal.environment import (
    PathKind,
    SoundSpeedProfile,
    Waveguide,
    eigenray_angles,
    find_eigenrays,
)
from swfocal import io as sio
from swfocal.grid import (
    DoaGrid,
    _axis_cells,
    _edge_rows,
    build_doa_grid,
    check_roi,
    inside_roi,
    interpolate_doa_many,
)
from swfocal.tracking import ParticleSet, update

from oracles import (
    BOUNCE_SIGNATURE,
    bilinear_doa,
    image_source_angles,
    interpolate_doa,
    march_rays,
    min_weight_edge_rows,
    sound_speed_at,
)


def lookup_case():
    """A 2400x165 grid with holes, a -0.0 and steps inexact in binary, and
    points on nodes, one ulp beside them, on the roi's outer edges and
    inside cells, with the row range of each group.  The last point sits
    beside a node at depth 5e-324, where the weight fx * fy underflows to 0
    though neither fraction is 0; the corner that weight falls on is a
    hole."""
    rng = np.random.default_rng(23)
    roi = (100.0, 2500.0, 0.0, 175.0)
    values = rng.uniform(-30.0, 30.0, (2400, 165, 2))
    values[rng.random(values.shape) < 0.1] = np.nan
    values[7, 3, 0] = -0.0
    values[100:102, :2, :] = 1.5
    values[101, 1, :] = np.nan
    grid = DoaGrid(roi, values)
    r0, r1, d0, d1 = roi
    i = rng.integers(0, grid.n_r, 300)
    j = rng.integers(0, grid.n_d, 300)
    nodes = np.column_stack([grid.ranges[i], grid.depths[j]])
    nodes = np.concatenate([nodes, [[grid.ranges[7], grid.depths[3]]]])
    ulps = [
        np.column_stack([np.nextafter(nodes[:, 0], s), np.nextafter(nodes[:, 1], t)])
        for s in (-np.inf, np.inf)
        for t in (-np.inf, np.inf)
    ]
    r, d = rng.uniform(r0, r1, 100), rng.uniform(d0, d1, 100)
    outer = [
        np.column_stack([np.full(100, r0), d]),
        np.column_stack([np.full(100, r1), d]),
        np.column_stack([r, np.full(100, d0)]),
        np.column_stack([r, np.full(100, d1)]),
        [[r0, d0], [r0, d1], [r1, d0], [r1, d1]],
    ]
    inside = np.column_stack([rng.uniform(r0, r1, 300), rng.uniform(d0, d1, 300)])
    underflow = [[np.nextafter(grid.ranges[100], np.inf), 5e-324]]
    parts = {"nodes": [nodes], "ulps": ulps, "outer": outer, "inside": [inside], "underflow": [underflow]}
    groups, n = {}, 0
    for name, arrays in parts.items():
        size = sum(len(a) for a in arrays)
        groups[name], n = np.arange(n, n + size), n + size
    pts = np.concatenate([a for arrays in parts.values() for a in arrays])
    pts[:, 0] = np.clip(pts[:, 0], r0, r1)
    pts[:, 1] = np.clip(pts[:, 1], d0, d1)
    return grid, pts, groups


class TestBuild:
    def test_iso_grid_matches_image_sources(self, iso_wg, iso_grid):
        R, D = np.meshgrid(iso_grid.ranges, iso_grid.depths, indexing="ij")
        for ki, kind in enumerate(iso_grid.kinds):
            expect = np.array(
                [
                    [image_source_angles(216.5, 150.0, R[i, j], D[i, j])[kind] for j in range(D.shape[1])]
                    for i in range(R.shape[0])
                ]
            )
            got = iso_grid.values[:, :, ki]
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - expect)) < 0.01

    def test_minimal_grid_shape(self, iso_wg):
        grid = build_doa_grid(iso_wg, (500.0, 600.0, 80.0, 120.0), 2, 2)
        assert grid.values.shape == (2, 2, 4)
        assert np.all(np.isfinite(grid.values))

    def test_build_is_deterministic(self, iso_wg):
        a = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 11, 9)
        b = build_doa_grid(iso_wg, (400.0, 900.0, 40.0, 160.0), 11, 9)
        assert np.array_equal(a.values, b.values)

    @staticmethod
    def assert_rows_are_public_solves(wg, grid):
        for j, depth in enumerate(grid.depths):
            want = eigenray_angles(wg, depth, grid.ranges).T
            assert grid.values[:, j, :].tobytes() == want.tobytes(), f"row {j} at {depth} m"

    def test_rows_are_public_solves_coastal(self, coastal_wg):
        # the depth axis steps 10 m onto the receiver depth, 153.1875 m
        grid = build_doa_grid(coastal_wg, (100.0, 2500.0, 13.1875, 173.1875), 120, 17)
        assert coastal_wg.receiver_depth in grid.depths
        self.assert_rows_are_public_solves(coastal_wg, grid)

    def test_rows_are_public_solves_iso(self, iso_wg, iso_grid):
        assert iso_wg.receiver_depth in iso_grid.depths  # the horizontal direct path
        self.assert_rows_are_public_solves(iso_wg, iso_grid)

    def test_rows_are_public_solves_strong_gradient(self):
        wg = Waveguide(
            ssp=SoundSpeedProfile(knots=((0.0, 1540.0), (216.5, 1453.4))),
            bottom_depth=216.5,
            receiver_depth=150.0,
        )
        grid = build_doa_grid(wg, (100.0, 2500.0, 10.0, 175.0), 120, 34)
        assert np.isnan(grid.values).any() and np.isfinite(grid.values).any()
        self.assert_rows_are_public_solves(wg, grid)

    def test_rows_are_public_solves_across_builds(self, coastal_wg):
        # one process builds wide, narrow (fewer columns than the fan) and
        # then wider grids; every row must still be the public solve
        for n_r in (300, 40, 700):
            grid = build_doa_grid(coastal_wg, (100.0, 2500.0, 13.1875, 173.1875), n_r, 5)
            self.assert_rows_are_public_solves(coastal_wg, grid)

    def test_iso_direct_path_at_receiver_depth_is_horizontal(self, iso_grid):
        (row,) = np.flatnonzero(iso_grid.depths == 150.0)
        assert np.all(iso_grid.values[:, row, iso_grid.kinds.index(PathKind.DP)] == 0.0)

    def test_sampled_cells_agree_with_marcher_oracle(self, full_grid, coastal_wg):
        grid, _ = full_grid
        v = grid.values
        zr = coastal_wg.receiver_depth
        rng = np.random.default_rng(17)
        # cells one range step short of an impossible cell and the impossible
        # cells there are the hardest: their rays are nearly the flattest
        edge = np.zeros(v.shape, dtype=bool)
        edge[1:] = np.isnan(v[1:]) & np.isfinite(v[:-1])
        last_finite = np.roll(edge, -1, axis=0)

        def sample(mask, n):
            cells = np.argwhere(mask)
            return cells[rng.choice(len(cells), min(n, len(cells)), replace=False)]

        # every finite value, reversed, retraces from the receiver to the
        # cell's source along its kind's bounces in reverse order
        cells = np.concatenate([sample(np.isfinite(v), 60), sample(last_finite, 20)])
        i, j, k = cells.T
        kinds = [grid.kinds[kk] for kk in k]
        depth, _, bounces = march_rays(coastal_wg, zr, -v[i, j, k], grid.ranges[i])
        assert np.all(np.abs(depth - grid.depths[j]) < 5e-3)
        assert bounces == [BOUNCE_SIGNATURE[kind][::-1] for kind in kinds]

        # at every impossible cell the kind's flattest boundary-guided ray
        # has passed the far end of the path before the cell's range.  In
        # this profile the fastest depth such a path crosses is its
        # shallower end, where the flattest ray is horizontal, so it is
        # marched from there, reversed when that end is the receiver.
        cells = np.concatenate([sample(np.isnan(v), 40), sample(edge, 40)])
        i, j, k = cells.T
        kinds = [grid.kinds[kk] for kk in k]
        assert set(kinds) <= {PathKind.DP, PathKind.BB}
        from_source = grid.depths[j] < zr
        start = np.where(from_source, grid.depths[j], zr)
        end = np.where(from_source, zr, grid.depths[j])
        knots = np.array([z for z, _ in coastal_wg.ssp.knots])
        for z0, z1, kind in zip(start, end, kinds):
            deepest = coastal_wg.bottom_depth if kind is PathKind.BB else z1
            crossed = np.concatenate([[z0, deepest], knots[(knots > z0) & (knots < deepest)]])
            speeds = [sound_speed_at(coastal_wg.ssp, z) for z in crossed]
            assert max(speeds) == speeds[0]
        depth, angle, bounces = march_rays(coastal_wg, start, np.zeros(len(cells)), grid.ranges[i])
        for kind, fwd, z_end, z, a, b in zip(kinds, from_source, end, depth, angle, bounces):
            sig = BOUNCE_SIGNATURE[kind] if fwd else BOUNCE_SIGNATURE[kind][::-1]
            assert b[: len(sig)] == sig
            assert len(b) > len(sig) or (z > z_end) == (a > 0.0)

    def test_canonical_ordering_on_grid(self, refr_grid):
        v = refr_grid.values
        all_finite = np.all(np.isfinite(v), axis=2)
        vv = v[all_finite]
        assert np.all(np.diff(vv, axis=1) <= 1e-12)

    def test_impossible_regions_marked(self):
        wg = Waveguide(
            ssp=SoundSpeedProfile(knots=((0.0, 1540.0), (216.5, 1453.4))),
            bottom_depth=216.5,
            receiver_depth=150.0,
        )
        grid = build_doa_grid(wg, (200.0, 2400.0, 10.0, 170.0), 56, 17)
        cov = grid.coverage()
        assert cov[PathKind.DP] > 0.3  # direct path dies at long range here
        assert np.any(np.isnan(grid.values))

    def test_bad_roi_rejected(self, iso_wg):
        for roi, rule in (
            ((100.0, 2500.0, 10.0, 300.0), "depths must lie in the water column [0, 216.5]"),
            ((-5.0, 2500.0, 10.0, 175.0), "ranges must be positive"),
            ((2500.0, 100.0, 10.0, 175.0), "the range span must be positive and finite"),
            ((100.0, 2500.0, 10.0, float("nan")), "the depth span must be positive and finite"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(f'roi: {rule}, got {list(roi)}')}$"):
                build_doa_grid(iso_wg, roi, 10, 10)
        with pytest.raises(ValueError, match="2 points"):
            build_doa_grid(iso_wg, (100.0, 2500.0, 10.0, 175.0), 1, 10)


class TestRoi:
    @pytest.mark.parametrize(
        "roi, axis",
        [
            ((2500.0, 100.0, 10.0, 175.0), "range"),
            ((100.0, 100.0, 10.0, 175.0), "range"),
            ((-1e308, 1e308, 0.0, 10.0), "range"),
            ((100.0, np.inf, 10.0, 175.0), "range"),
            ((np.nan, 2500.0, 10.0, 175.0), "range"),
            ((100.0, 2500.0, 175.0, 10.0), "depth"),
            ((100.0, 2500.0, -np.inf, 175.0), "depth"),
            ((100.0, 2500.0, 10.0, np.nan), "depth"),
        ],
    )
    def test_check_roi_refuses_an_empty_or_infinite_span(self, roi, axis):
        rule = f"roi: the {axis} span must be positive and finite, got {list(roi)}"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            check_roi(roi)

    def test_inside_roi_table(self, iso_grid):
        # each edge is inside, one ulp beyond it is not, nor is nan or an
        # infinity in either coordinate; the lookup refuses exactly the
        # rows outside and the update weighs exactly those as zero
        r0, r1, d0, d1 = iso_grid.roi
        rm, dm = 0.5 * (r0 + r1), 0.5 * (d0 + d1)
        inside = [(rm, dm), (r0, dm), (r1, dm), (rm, d0), (rm, d1), (r0, d0), (r1, d1)]
        outside = [
            (np.nextafter(r0, -np.inf), dm), (np.nextafter(r1, np.inf), dm),
            (rm, np.nextafter(d0, -np.inf)), (rm, np.nextafter(d1, np.inf)),
            *[(v, dm) for v in (np.nan, np.inf, -np.inf)], *[(rm, v) for v in (np.nan, np.inf, -np.inf)],
        ]
        pts = np.array(inside + outside)
        want = np.arange(len(pts)) < len(inside)
        assert np.array_equal(inside_roi(iso_grid.roi, pts[:, 0], pts[:, 1]), want)
        for p, ok in zip(pts, want):
            if ok:
                assert interpolate_doa_many(iso_grid, p[None]).shape == (1, 4)
            else:
                with pytest.raises(ValueError, match="outside the grid region of interest"):
                    interpolate_doa_many(iso_grid, p[None])
        states = np.column_stack([pts, np.zeros(len(pts))])
        ps = ParticleSet(states=states, weights=np.full(len(pts), 1.0 / len(pts)))
        params = ModelParams(n_paths=4, sigma_deg=(0.5, 0.5, 2.0, 2.0))
        out = update(ps, ObservationSet(z=np.array([5.0])), iso_grid, params)
        assert np.array_equal(out.weights > 0.0, want)


class TestInterpolation:
    def test_node_identity(self, iso_grid):
        v = interpolate_doa(iso_grid, (iso_grid.ranges[10], iso_grid.depths[5]), 1)
        assert v == iso_grid.values[10, 5, 1]

    def test_cell_center_is_corner_mean(self, iso_grid):
        r = 0.5 * (iso_grid.ranges[3] + iso_grid.ranges[4])
        d = 0.5 * (iso_grid.depths[7] + iso_grid.depths[8])
        corners = iso_grid.values[3:5, 7:9, 2]
        assert interpolate_doa(iso_grid, (r, d), 2) == pytest.approx(corners.mean(), rel=1e-12)

    def test_outside_roi_rejected(self, iso_grid):
        with pytest.raises(ValueError):
            interpolate_doa(iso_grid, (50.0, 60.0), 0)
        with pytest.raises(ValueError):
            interpolate_doa_many(iso_grid, np.array([[50.0, 60.0]]))

    def test_partially_impossible_cell_returns_impossible(self):
        values = np.zeros((2, 2, 1))
        values[1, 1, 0] = np.nan
        grid = DoaGrid((0.0, 10.0, 0.0, 10.0), values)
        assert interpolate_doa(grid, (5.0, 5.0), 0) is None
        assert np.isnan(interpolate_doa_many(grid, np.array([[5.0, 5.0]]))[0, 0])

    def test_zero_weight_corners_do_not_poison_nodes(self):
        # querying exactly on a valid node must return its value even if a
        # neighboring cell corner is impossible
        values = np.arange(8, dtype=float).reshape(2, 4, 1)
        values[1, 3, 0] = np.nan
        grid = DoaGrid((0.0, 10.0, 0.0, 30.0), values)
        assert interpolate_doa(grid, (0.0, 30.0), 0) == values[0, 3, 0]
        assert interpolate_doa(grid, (5.0, 25.0), 0) is None

    def test_interpolation_tracks_direct_solve(self, coastal_wg, refr_grid):
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(320, 1180, 40), rng.uniform(32, 148, 40)])
        interp = interpolate_doa_many(refr_grid, pts)
        for i in range(pts.shape[0]):
            rays = find_eigenrays(coastal_wg, (pts[i, 0], pts[i, 1]))
            for ki, kind in enumerate(refr_grid.kinds):
                if np.isnan(interp[i, ki]):
                    continue
                assert rays[kind] is not None
                assert abs(rays[kind].arrival_angle_deg - interp[i, ki]) < 0.1

    def test_batch_matches_scalar(self, refr_grid, full_grid):
        # batch and one-point calls against the binary-search oracle, bit for
        # bit: off-node points, a row and a column of nodes, nodes beside
        # impossible DP cells, one ulp to either side of each node, and the
        # roi corners.  The 1 m grid's steps are not exact in binary, so
        # the uniform-step cell guess is off by one at some of its nodes.
        rng = np.random.default_rng(5)
        for g in (refr_grid, full_grid[0]):
            r0, r1, d0, d1 = g.roi
            dp = g.values[:, :, g.kinds.index(PathKind.DP)]
            i, j = np.nonzero(np.isfinite(dp[:-1]) & np.isnan(dp[1:]))
            pick = rng.choice(len(i), min(len(i), 40), replace=False)
            i, j = i[pick], j[pick]
            nodes = np.concatenate(
                [
                    np.column_stack([g.ranges[i], g.depths[j]]),
                    np.column_stack([g.ranges[i + 1], g.depths[j]]),
                    np.column_stack([g.ranges, np.full(g.n_r, rng.choice(g.depths))]),
                    np.column_stack([np.full(g.n_d, rng.choice(g.ranges)), g.depths]),
                ]
            )
            ulps = [
                np.column_stack([np.nextafter(nodes[:, 0], s), np.nextafter(nodes[:, 1], t)])
                for s in (-np.inf, np.inf)
                for t in (-np.inf, np.inf)
            ]
            corners = [[r0, d0], [r0, d1], [r1, d0], [r1, d1]]
            off = np.column_stack([rng.uniform(r0, r1, 25), rng.uniform(d0, d1, 25)])
            pts = np.concatenate([off, nodes, *ulps, corners])
            pts[:, 0] = np.clip(pts[:, 0], r0, r1)
            pts[:, 1] = np.clip(pts[:, 1], d0, d1)
            batch = interpolate_doa_many(g, pts)
            n_none = 0
            for n, (r, d) in enumerate(pts.tolist()):
                for k, want in enumerate(bilinear_doa(g, r, d)):
                    if n % 5 == 0:
                        assert interpolate_doa(g, (r, d), k) == want
                    if want is None:
                        n_none += 1
                        assert np.isnan(batch[n, k])
                    else:
                        assert batch[n, k] == want
            assert len(i) > 0 and n_none > 0

    def test_node_tables_are_linspace_and_read_only(self, iso_grid, tmp_path):
        path = tmp_path / "grid.bin"
        sio.write_grid(path, iso_grid)
        for g in (
            iso_grid,
            iso_grid.select_kinds(iso_grid.kinds),
            iso_grid.select_kinds(iso_grid.kinds[:2]),
            sio.read_grid(path),
        ):
            r0, r1, d0, d1 = g.roi
            assert g.ranges.tobytes() == np.linspace(r0, r1, g.n_r).tobytes()
            assert g.depths.tobytes() == np.linspace(d0, d1, g.n_d).tobytes()
            for nodes in (g.ranges, g.depths):
                with pytest.raises(ValueError, match="read-only"):
                    nodes[0] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    nodes *= 2.0
        # the refused writes left the tables as they were
        assert iso_grid.ranges.tobytes() == np.linspace(100.0, 2500.0, 61).tobytes()

    def test_infinite_roi_rejected(self):
        values = np.zeros((2, 2, 1))
        for roi in ((0.0, np.inf, 0.0, 10.0), (-1e308, 1e308, 0.0, 10.0)):
            with pytest.raises(ValueError, match="finite"):
                DoaGrid(roi, values)

    def test_edge_rule_marks_the_zero_weight_rows(self):
        grid, pts, groups = lookup_case()
        r0, r1, d0, d1 = grid.roi
        _, fx = _axis_cells(r0, r1, grid.ranges, pts[:, 0])
        _, fy = _axis_cells(d0, d1, grid.depths, pts[:, 1])
        got = _edge_rows(fx, 1 - fx, fy, 1 - fy)
        assert np.array_equal(got, min_weight_edge_rows(fx, fy))
        # every node, roi edge and the underflow is an edge row; no cell
        # interior is, and the underflow's fractions are both inside (0, 1)
        for name in ("nodes", "outer", "underflow"):
            assert np.isin(groups[name], got).all(), name
        assert not np.isin(groups["inside"], got).any()
        assert 0.0 < fx[-1] < 1.0 and 0.0 < fy[-1] < 1.0

    def test_lookup_matches_oracle_byte_for_byte(self):
        grid, pts, _ = lookup_case()
        batch = interpolate_doa_many(grid, pts)
        n_none = 0
        for n, (r, d) in enumerate(pts.tolist()):
            for k, want in enumerate(bilinear_doa(grid, r, d)):
                if want is None:
                    n_none += 1
                    assert np.isnan(batch[n, k])
                else:
                    assert batch[n, k].tobytes() == np.float64(want).tobytes(), (n, k)
        assert n_none > 0
        assert not np.isnan(batch[-1]).any()  # the underflowed hole carries no weight

    @pytest.mark.parametrize(
        "grid_name, max_holes, max_phantoms, max_err_deg",
        [
            ("readme", [8, 76, 64, 0], [0, 3, 1, 0], 0.032),
            ("full", [0, 36, 27, 0], [0, 0, 0, 0], 0.0097),
        ],
    )
    def test_lookup_holes_and_phantoms_stay_bounded(
        self, coastal_wg, full_grid, grid_name, max_holes, max_phantoms, max_err_deg
    ):
        # a hole is a nan lookup where the direct solve finds a ray, a phantom
        # a value where it finds none; 100 random depths x 100 random ranges,
        # one solve per depth.  The bounds are the counts and the worst
        # error at the time of writing: a change may lower them, never raise
        if grid_name == "readme":
            grid = build_doa_grid(coastal_wg, (100.0, 3600.0, 10.0, 175.0), 876, 56)
        else:
            grid = full_grid[0]
        rng = np.random.default_rng(16)
        r0, r1, d0, d1 = grid.roi
        ranges = rng.uniform(r0, r1, 100)
        holes, phantoms, worst = np.zeros(4, int), np.zeros(4, int), 0.0
        for depth in rng.uniform(d0, d1, 100):
            exact = eigenray_angles(coastal_wg, depth, ranges).T
            looked = interpolate_doa_many(grid, np.column_stack([ranges, np.full(100, depth)]))
            holes += (np.isnan(looked) & ~np.isnan(exact)).sum(axis=0)
            phantoms += (np.isnan(exact) & ~np.isnan(looked)).sum(axis=0)
            worst = np.fmax.reduce(np.abs(looked - exact), axis=None, initial=worst)
        assert (holes <= max_holes).all(), holes
        assert (phantoms <= max_phantoms).all(), phantoms
        assert worst <= max_err_deg

    def test_select_kinds(self, iso_grid):
        sub = iso_grid.select_kinds((PathKind.SB, PathKind.DP))
        assert sub.kinds == (PathKind.SB, PathKind.DP)
        assert sub.values.flags.c_contiguous
        assert np.array_equal(sub.values, iso_grid.values[:, :, :2])
        for kinds in ((PathKind.BB,), (PathKind.SB, PathKind.DP, PathKind.BB)):
            with pytest.raises(ValueError, match="first paths"):
                sub.select_kinds(kinds)

    def test_select_kinds_shares_every_layer_in_order(self, iso_grid):
        same = iso_grid.select_kinds(iso_grid.kinds)
        assert same.kinds == iso_grid.kinds
        assert np.shares_memory(same.values, iso_grid.values)
        assert np.array_equal(same.values, iso_grid.values)
        for kinds in (iso_grid.kinds[::-1], (PathKind.DP,), (PathKind.SB, PathKind.BB)):
            with pytest.raises(ValueError, match="first paths"):
                iso_grid.select_kinds(kinds)

    def test_select_kinds_rejects_duplicates(self, iso_grid):
        with pytest.raises(ValueError, match="first paths"):
            iso_grid.select_kinds((PathKind.SB, PathKind.SB))

    def test_counts_and_paths_are_read_off_the_values(self):
        grid = DoaGrid((0.0, 10.0, 0.0, 30.0), np.zeros((3, 4, 2)))
        assert (grid.n_r, grid.n_d, grid.kinds) == (3, 4, (PathKind.SB, PathKind.DP))
        for shape in ((3, 4), (3, 4, 2, 1), (3, 4, 0), (3, 4, 5)):
            with pytest.raises(ValueError, match="K in 1..4"):
                DoaGrid((0.0, 10.0, 0.0, 30.0), np.zeros(shape))
