import math

import numpy as np
import pytest

from swfocal import environment
from swfocal.environment import (
    _FAN,
    _FAN_SIN,
    PathKind,
    SoundSpeedProfile,
    Waveguide,
    _path_range,
    eigenray_angles,
    find_eigenrays,
)

from oracles import (
    BOUNCE_SIGNATURE,
    image_source_angles,
    march_rays,
    row_major_path_range,
    sound_speed_at,
)


def make_wg(knots, bottom=216.5, receiver=150.0):
    return Waveguide(ssp=SoundSpeedProfile(knots=knots), bottom_depth=bottom, receiver_depth=receiver)


class TestSoundSpeedProfile:
    def test_interpolation_exact_at_knots(self):
        ssp = SoundSpeedProfile(knots=((0, 1500), (200, 1480)))
        assert sound_speed_at(ssp, 0.0) == 1500.0
        assert sound_speed_at(ssp, 200.0) == 1480.0

    def test_linear_between_knots(self):
        ssp = SoundSpeedProfile(knots=((0, 1500), (200, 1480)))
        assert sound_speed_at(ssp, 100.0) == pytest.approx(1490.0)

    def test_outside_support_rejected(self):
        ssp = SoundSpeedProfile(knots=((0, 1500), (200, 1480)))
        with pytest.raises(ValueError):
            sound_speed_at(ssp, 250.0)
        with pytest.raises(ValueError):
            sound_speed_at(ssp, -1.0)

    def test_bad_profiles_rejected(self):
        with pytest.raises(ValueError):
            SoundSpeedProfile(knots=((10.0, 1500.0), (200.0, 1480.0)))  # no surface knot
        with pytest.raises(ValueError):
            SoundSpeedProfile(knots=((0.0, 1500.0), (0.0, 1480.0)))  # not increasing
        with pytest.raises(ValueError):
            SoundSpeedProfile(knots=((0.0, 1500.0), (200.0, -5.0)))  # bad speed

    def test_waveguide_validation(self):
        ssp = SoundSpeedProfile(knots=((0, 1500), (200, 1480)))
        with pytest.raises(ValueError):
            Waveguide(ssp=ssp, bottom_depth=216.5, receiver_depth=150.0)  # profile too short
        with pytest.raises(ValueError):
            Waveguide(ssp=ssp, bottom_depth=180.0, receiver_depth=200.0)  # receiver below bottom


class TestTraceRay:
    """Physical checks of the fixed-step marcher the eigenray tests rely on."""

    def test_horizontal_ray_in_iso_water_is_straight(self, iso_wg):
        *_, bounces, track = march_rays(iso_wg, 60.0, 0.0, 500.0, record=True)
        assert bounces == [()]
        assert np.allclose(track[:, 0, 1], 60.0)
        assert np.allclose(track[:, 0, 2], 0.0)
        assert track[-1, 0, 0] == pytest.approx(500.0)

    def test_steep_ray_reflects_specularly_at_bottom(self, iso_wg):
        *_, bounces, track = march_rays(iso_wg, 60.0, 45.0, 360.0, record=True)
        assert bounces == [("bottom",)]
        x, z, angle = track[:, 0].T
        # straight segments with mirrored angle after the bounce
        assert np.allclose(np.abs(angle), 45.0, atol=1e-12)
        hit = 216.5 - 60.0  # horizontal distance to the bottom at 45 degrees
        down, up = x < hit - 1e-9, x > hit + 1e-9
        assert np.allclose(angle[down], 45.0)
        assert np.allclose(z[down], 60.0 + x[down])
        assert np.allclose(angle[up], -45.0)
        assert np.allclose(z[up], 2 * 216.5 - 60.0 - x[up])

    def test_constant_gradient_arc_radius(self):
        # circumradius through any three points of a circular arc equals
        # the analytic ray radius c / (g cos(theta))
        wg = make_wg(((0.0, 1520.0), (216.5, 1480.0)))
        g = (1480.0 - 1520.0) / 216.5
        *_, bounces, track = march_rays(wg, 60.0, 5.0, 800.0, step=2.0, record=True)
        assert bounces == [()]
        samples = track[:, 0]

        def circumradius(p1, p2, p3):
            a = np.hypot(*(p2 - p1))
            b = np.hypot(*(p3 - p2))
            c = np.hypot(*(p3 - p1))
            area = abs(
                (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p2[1] - p1[1]) * (p3[0] - p1[0])
            ) / 2.0
            return a * b * c / (4.0 * area)

        for i in (5, 150, 300):
            pts = [samples[j, :2] for j in (i, i + 1, i + 2)]
            radius = circumradius(*pts)
            z_mid = samples[i + 1, 1]
            c_mid = sound_speed_at(wg.ssp, z_mid)
            th_mid = math.radians(samples[i + 1, 2])
            analytic = abs(c_mid / (g * math.cos(th_mid)))
            assert radius == pytest.approx(analytic, rel=1e-6)

    def test_snell_invariant_along_multilayer_ray(self, coastal_wg):
        # the marcher integrates the ray equations without imposing Snell's
        # law, so cos(theta) / c staying put across layers and bounces
        # checks the integration
        *_, bounces, track = march_rays(coastal_wg, 40.0, -12.0, 1500.0, record=True)
        assert bounces == [("surface", "bottom")]
        samples = track[:, 0]
        c = np.array([sound_speed_at(coastal_wg.ssp, z) for z in samples[:, 1]])
        xi = np.cos(np.radians(samples[:, 2])) / c
        assert (xi.max() - xi.min()) / xi.mean() < 1e-9

    def test_turning_ray_stays_inside_column(self):
        wg = make_wg(((0.0, 1540.0), (50.0, 1500.0), (216.5, 1495.0)))
        *_, bounces, track = march_rays(wg, 100.0, -3.0, 3000.0, step=10.0, record=True)
        assert bounces == [()]
        assert track[:, 0, 1].min() > 0.0
        assert track[:, 0, 1].max() < 216.5
        assert np.any(track[:, 0, 2] > 0.0) and np.any(track[:, 0, 2] < 0.0)  # it turned


class TestEigenrays:
    def test_iso_velocity_matches_image_sources(self, iso_wg):
        rays = find_eigenrays(iso_wg, (1000.0, 60.0))
        expect = image_source_angles(216.5, 150.0, 1000.0, 60.0)
        for kind in PathKind:
            assert rays[kind] is not None
            assert rays[kind].arrival_angle_deg == pytest.approx(expect[kind], abs=1e-3)

    def test_source_at_receiver_depth_gives_horizontal_direct_path(self, iso_wg):
        ray = find_eigenrays(iso_wg, (800.0, 150.0))[PathKind.DP]
        assert ray is not None
        assert ray.arrival_angle_deg == pytest.approx(0.0, abs=1e-3)

    def test_surface_bounce_equals_mirrored_direct_path(self, iso_wg):
        # in an iso-velocity channel the one-surface-bounce arrival equals
        # the straight line from the source mirrored above the surface
        sb = find_eigenrays(iso_wg, (700.0, 45.0))[PathKind.SB]
        mirrored = math.degrees(math.atan2(150.0 + 45.0, 700.0))
        assert sb.arrival_angle_deg == pytest.approx(mirrored, abs=1e-6)

    def test_canonical_ordering_where_all_paths_exist(self, iso_wg, coastal_wg):
        rng = np.random.default_rng(3)
        for wg in (iso_wg, coastal_wg):
            for _ in range(12):
                src = (rng.uniform(150, 2400), rng.uniform(12, 170))
                rays = find_eigenrays(wg, src)
                angles = [rays[k].arrival_angle_deg for k in PathKind if rays[k] is not None]
                if len(angles) == 4:
                    assert angles[0] >= angles[1] > angles[2] >= angles[3]

    def test_eigenray_arrival_retraces_to_source(self, coastal_wg):
        # the arrival reversed is a ray from the receiver that lands on the
        # source after the kind's bounces in reverse order
        src = (900.0, 75.0)
        rays = find_eigenrays(coastal_wg, src)
        zr = coastal_wg.receiver_depth
        for kind, ray in rays.items():
            if ray is None:
                continue
            (depth,), _, (bounces,) = march_rays(coastal_wg, zr, -ray.arrival_angle_deg, src[0])
            assert bounces == BOUNCE_SIGNATURE[kind][::-1]
            assert depth == pytest.approx(src[1], abs=5e-3)

    def test_direct_path_impossible_at_long_range_in_strong_gradient(self):
        wg = make_wg(((0.0, 1540.0), (216.5, 1453.4)))
        assert find_eigenrays(wg, (2400.0, 10.0))[PathKind.DP] is None
        assert find_eigenrays(wg, (300.0, 100.0))[PathKind.DP] is not None

    def test_one_range_solve_agrees_with_a_many_range_solve(self, coastal_wg):
        # a one-column slice-run sum takes another order than a many-column
        # one, so the two agree to rounding, not bit for bit
        ranges = np.linspace(100.0, 2500.0, 2400)
        cols = np.random.default_rng(11).choice(ranges.size, 36, replace=False)
        depths = [10.0, 37.5, 75.0, coastal_wg.receiver_depth, 160.0, 175.0, 200.0, 216.5]
        impossible = 0
        for depth in depths:
            many = eigenray_angles(coastal_wg, depth, ranges)[:, cols]
            one = np.hstack([eigenray_angles(coastal_wg, depth, [ranges[i]]) for i in cols])
            assert np.array_equal(np.isnan(one), np.isnan(many)), f"at {depth} m"
            impossible += np.isnan(many).sum()
            np.testing.assert_allclose(one, many, rtol=0.0, atol=1e-12, err_msg=f"at {depth} m")
        assert 0 < impossible < many.size * len(depths)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_steep_rays_at_short_range_match_image_sources(self, iso_wg, r):
        # these brackets end at the vertical fan ray, where R(phi) -> 0 makes
        # f so steep that a false-position step rounds onto the other end
        rays = find_eigenrays(iso_wg, (r, 60.0))
        expect = image_source_angles(216.5, 150.0, r, 60.0)
        for kind in PathKind:
            assert rays[kind].arrival_angle_deg == pytest.approx(expect[kind], abs=1e-9)

    @pytest.mark.parametrize("r", [1e-300, 1e-100])
    def test_a_range_tiny_beside_the_depths_takes_the_vertical_ray(self, coastal_wg, r):
        # even the vertical fan ray reaches beyond r by more than a float's
        # precision, so both ends of its bracket read f = -1: the secant is
        # +inf and bisects, with no numpy warning, onto the vertical ray
        rays = find_eigenrays(coastal_wg, (r, 60.0))
        assert [rays[kind].arrival_angle_deg for kind in PathKind] == [90.0, 90.0, -90.0, -90.0]

    def test_a_bottom_far_below_the_source_turns_its_paths_vertical(self, coastal_wg):
        # the deepest column the rules allow under the coastal profile's
        # upper 190 m: the paths that reach the bottom are vertical rays, and
        # those above it are the coastal ones bit for bit
        knots = (*coastal_wg.ssp.knots[:-1], (1e100, 1488.2))
        deep = Waveguide(SoundSpeedProfile(knots), bottom_depth=1e100, receiver_depth=coastal_wg.receiver_depth)
        rays, coastal = find_eigenrays(deep, (1000.0, 60.0)), find_eigenrays(coastal_wg, (1000.0, 60.0))
        assert [rays[kind].arrival_angle_deg for kind in (PathKind.BB, PathKind.SBB)] == [-90.0, -90.0]
        assert [rays[kind] for kind in (PathKind.SB, PathKind.DP)] == [coastal[PathKind.SB], coastal[PathKind.DP]]

    def test_invalid_source_positions_rejected(self, iso_wg):
        with pytest.raises(ValueError):
            find_eigenrays(iso_wg, (0.0, 60.0))
        with pytest.raises(ValueError):
            find_eigenrays(iso_wg, (500.0, 400.0))


class TestRangeFunction:
    """The node-major range function against the row-major oracle.

    The two sum a path's slice runs in different orders, so from 8 slices
    on they may differ by a few ulps; the impossible (``inf``) rays match.
    """

    @staticmethod
    def terms(c, weighted_dz):
        # as _grazing_angle forms them
        c_max = c.max()
        return weighted_dz * (c[:-1] + c[1:]), (c_max - c) * (c_max + c)

    @staticmethod
    def angles(rng):
        return np.concatenate([[0.0, 0.5 * np.pi], _FAN, rng.uniform(0.0, 0.5 * np.pi, 300)])

    @pytest.mark.parametrize("n_slices", [*range(1, 41), 150])
    def test_matches_row_major_byte_for_byte(self, n_slices):
        rng = np.random.default_rng(n_slices)
        c = rng.uniform(1450.0, 1550.0, n_slices + 1)
        weighted_dz = rng.uniform(0.1, 30.0, n_slices) * rng.integers(1, 3, n_slices)
        num, base = self.terms(c, weighted_dz)
        phi = self.angles(rng)
        got, want = _path_range(np.sin(phi), np.cos(phi), c, num, base), row_major_path_range(phi, c, num, base)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14, atol=0.0)

    def test_iso_layer_at_the_top_speed_is_unbounded_at_zero(self):
        rng = np.random.default_rng(7)
        c = np.array([1500.0, 1505.0, 1510.0, 1510.0, 1495.0, 1490.0])
        num, base = self.terms(c, np.array([10.0, 20.0, 15.0, 30.0, 12.0]))
        phi = self.angles(rng)
        got = _path_range(np.sin(phi), np.cos(phi), c, num, base)
        assert np.array_equal(np.isinf(got), phi == 0.0)
        assert got.tobytes() == row_major_path_range(phi, c, num, base).tobytes()


# the profiles the solver's roots are checked on, besides the bundled coastal one
PROFILES = {
    "iso": ((0.0, 1500.0), (216.5, 1500.0)),
    "strong gradient": ((0.0, 1540.0), (216.5, 1453.4)),
    "iso layer at the top speed": ((0.0, 1500.0), (30.0, 1510.0), (60.0, 1510.0), (216.5, 1490.0)),
    "upward-refracting": ((0.0, 1480.0), (216.5, 1520.0)),
}


class TestGrazingAngle:
    """The solver's roots, checked by what they solve rather than by their bits."""

    DEPTHS = (0.0, 10.0, 37.5, 75.0, 150.0, 160.0, 200.0, 216.5)
    RANGES = np.geomspace(1.0, 2e4, 2400)

    def test_fan_rises_strictly_from_grazing_to_vertical(self):
        assert _FAN[0] == 0.0 and _FAN[-1] == 0.5 * np.pi
        assert np.all(np.diff(_FAN) > 0.0)

    @pytest.mark.parametrize("profile", ["coastal", *PROFILES])
    def test_every_root_meets_the_stopping_rule_and_nan_marks_no_ray(self, profile, coastal_wg, monkeypatch):
        wg = coastal_wg if profile == "coastal" else make_wg(PROFILES[profile])
        solves = []
        solve = environment._grazing_angle

        def spy(c, weighted_dz, r, *hoisted):
            phi, c_max, *trig = solve(c, weighted_dz, r, *hoisted)
            solves.append((c, weighted_dz, r, phi))
            return phi, c_max, *trig

        monkeypatch.setattr(environment, "_grazing_angle", spy)
        for depth in self.DEPTHS:
            eigenray_angles(wg, depth, self.RANGES)
        assert len(solves) >= 3 * len(self.DEPTHS)
        found = 0
        for c, weighted_dz, r, phi in solves:
            num, base = TestRangeFunction.terms(c, weighted_dz)
            assert np.array_equal(np.isnan(phi), r > row_major_path_range(0.0, c, num, base))
            ray = ~np.isnan(phi)
            residual = np.abs(r[ray] / row_major_path_range(phi[ray], c, num, base) - 1.0)
            assert residual.max(initial=0.0) <= 1e-13 + 4 * np.finfo(float).eps
            found += ray.sum()
        assert found > 0

    @pytest.mark.parametrize("profile", ["coastal", *PROFILES])
    def test_a_range_solves_alike_whatever_ranges_are_solved_with_it(self, profile, coastal_wg):
        # the brackets that settle at the first evaluation and those refined
        # after it must take the same bits in any company and order; chunks
        # hold at least 2 ranges, as a one-range solve sums its slice runs in
        # another order (test_one_range_solve_agrees_with_a_many_range_solve)
        wg = coastal_wg if profile == "coastal" else make_wg(PROFILES[profile])
        rng = np.random.default_rng(2024)
        for ranges in (self.RANGES, np.linspace(100.0, 2500.0, 2400)):
            cuts = np.cumsum(rng.integers(2, 200, ranges.size))
            chunks = np.split(ranges, cuts[cuts <= ranges.size - 2])
            shuffle = rng.permutation(ranges.size)
            for depth in (*self.DEPTHS, wg.receiver_depth):
                whole = eigenray_angles(wg, depth, ranges)
                split = np.hstack([eigenray_angles(wg, depth, chunk) for chunk in chunks])
                assert whole.tobytes() == split.tobytes(), f"at {depth} m"
                shuffled = eigenray_angles(wg, depth, ranges[shuffle])
                assert whole[:, shuffle].tobytes() == shuffled.tobytes(), f"at {depth} m, shuffled"

    def test_the_sine_and_cosine_returned_are_those_of_the_root(self, coastal_wg, monkeypatch):
        solves = []
        solve = environment._grazing_angle

        def spy(c, weighted_dz, r, *hoisted):
            phi, c_max, sin_phi, cos_phi = solve(c, weighted_dz, r, *hoisted)
            solves.append((phi, sin_phi, cos_phi))
            return phi, c_max, sin_phi, cos_phi

        monkeypatch.setattr(environment, "_grazing_angle", spy)
        for depth in self.DEPTHS:
            eigenray_angles(coastal_wg, depth, self.RANGES)
        for phi, sin_phi, cos_phi in solves:
            assert sin_phi.tobytes() == np.sin(phi).tobytes()
            assert cos_phi.tobytes() == np.cos(phi).tobytes()

    def test_brackets_still_open_after_the_last_step_raise(self, coastal_wg, monkeypatch):
        # the interpolated start settles a row of grid ranges in one step, but
        # not the steep rays at a few meters, where the fan's log ranges lie
        # far apart
        monkeypatch.setattr(environment, "_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"^[1-9]\d* of 2400 eigenray brackets still open after 1 steps$"):
            eigenray_angles(coastal_wg, 60.0, self.RANGES)

    def test_a_coastal_eigenray_costs_about_one_range_evaluation(self, coastal_wg, monkeypatch):
        # the rays evaluated after the fan, against the roots they found
        count = {"refine": 0, "roots": 0}
        path_range, solve = environment._path_range, environment._grazing_angle

        def counted_range(sin_phi, *args):
            if sin_phi is not _FAN_SIN:
                count["refine"] += sin_phi.size
            return path_range(sin_phi, *args)

        def counted_solve(c, weighted_dz, r, *hoisted):
            phi, c_max, *trig = solve(c, weighted_dz, r, *hoisted)
            count["roots"] += np.count_nonzero(~np.isnan(phi))
            return phi, c_max, *trig

        monkeypatch.setattr(environment, "_path_range", counted_range)
        monkeypatch.setattr(environment, "_grazing_angle", counted_solve)
        for depth in (10.0, 37.5, 75.0, 120.0, 160.0, 175.0):
            eigenray_angles(coastal_wg, depth, np.linspace(100.0, 2500.0, 2400))
        assert count["roots"] > 0
        assert count["refine"] <= 1.01 * count["roots"]

    def test_the_secant_start_converges_where_the_interpolant_is_not_finite(self, monkeypatch):
        # with an iso layer at c_max, R(0) is unbounded and the first fan
        # window's interpolant is not finite, so those brackets start at the
        # secant point; the long ranges reach into that window
        wg = make_wg(PROFILES["iso layer at the top speed"])
        not_finite, solves = [], []
        fan_start, solve = environment._fan_start, environment._grazing_angle

        def spy_start(fan_r, j, log_r):
            start = fan_start(fan_r, j, log_r)
            not_finite.append(np.count_nonzero(~np.isfinite(start)))
            return start

        def spy_solve(c, weighted_dz, r, *hoisted):
            phi, c_max, *trig = solve(c, weighted_dz, r, *hoisted)
            solves.append((c, weighted_dz, r, phi))
            return phi, c_max, *trig

        monkeypatch.setattr(environment, "_fan_start", spy_start)
        monkeypatch.setattr(environment, "_grazing_angle", spy_solve)
        for depth in (10.0, 45.0, 100.0, 200.0):
            eigenray_angles(wg, depth, np.geomspace(1e2, 1e8, 2400))
        assert sum(not_finite) > 0
        for c, weighted_dz, r, phi in solves:
            num, base = TestRangeFunction.terms(c, weighted_dz)
            assert np.array_equal(np.isnan(phi), r > row_major_path_range(0.0, c, num, base))
            ray = ~np.isnan(phi)
            residual = np.abs(r[ray] / row_major_path_range(phi[ray], c, num, base) - 1.0)
            assert residual.max(initial=0.0) <= 1e-13 + 4 * np.finfo(float).eps
