import math

import numpy as np
import pytest

from swfocal.environment import (
    _FAN,
    PathKind,
    SoundSpeedProfile,
    Waveguide,
    _path_range,
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
        ray = find_eigenrays(iso_wg, (800.0, 150.0), (PathKind.DP,))[PathKind.DP]
        assert ray is not None
        assert ray.arrival_angle_deg == pytest.approx(0.0, abs=1e-3)

    def test_surface_bounce_equals_mirrored_direct_path(self, iso_wg):
        # in an iso-velocity channel the one-surface-bounce arrival equals
        # the straight line from the source mirrored above the surface
        sb = find_eigenrays(iso_wg, (700.0, 45.0), (PathKind.SB,))[PathKind.SB]
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
        assert find_eigenrays(wg, (2400.0, 10.0), (PathKind.DP,))[PathKind.DP] is None
        assert find_eigenrays(wg, (300.0, 100.0), (PathKind.DP,))[PathKind.DP] is not None

    def test_invalid_source_positions_rejected(self, iso_wg):
        with pytest.raises(ValueError):
            find_eigenrays(iso_wg, (0.0, 60.0), (PathKind.DP,))
        with pytest.raises(ValueError):
            find_eigenrays(iso_wg, (500.0, 400.0), (PathKind.DP,))


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
        got, want = _path_range(phi, c, num, base), row_major_path_range(phi, c, num, base)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14, atol=0.0)

    def test_iso_layer_at_the_top_speed_is_unbounded_at_zero(self):
        rng = np.random.default_rng(7)
        c = np.array([1500.0, 1505.0, 1510.0, 1510.0, 1495.0, 1490.0])
        num, base = self.terms(c, np.array([10.0, 20.0, 15.0, 30.0, 12.0]))
        phi = self.angles(rng)
        got = _path_range(phi, c, num, base)
        assert np.array_equal(np.isinf(got), phi == 0.0)
        assert got.tobytes() == row_major_path_range(phi, c, num, base).tobytes()
