import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swfocal.assoc import (
    ModelParams,
    ObservationSet,
    PathPrediction,
    _live_spans,
    association_prior,
    conditional_pdf,
    is_valid,
    marginal_likelihood,
    marginal_likelihood_batch,
    path_likelihood,
)

from oracles import (
    count_valid,
    dense_dp_marginal,
    enum_marginal,
    gate_mask,
    unnormalized_factor_r,
    valid_vectors,
)

FA = 1.0 / 180.0


def params(K, sigma=None, d=0.9, mu=2.0):
    return ModelParams(
        n_paths=K, sigma_deg=sigma or (0.5,) * K, detect_prob=d, mu_fa=mu
    )


def pred(angles, detect=None):
    ang = np.asarray(angles, dtype=float)
    det = (
        np.asarray(detect, dtype=float)
        if detect is not None
        else np.where(np.isnan(ang), 0.0, 0.9)
    )
    return PathPrediction(angles_deg=ang, detect_probs=det)


CASES = dict(
    K=st.integers(min_value=1, max_value=4),
    M=st.integers(min_value=0, max_value=7),
    d=st.sampled_from([0.9, 1.0]),
    mu=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def random_case(K, M, d, mu, seed):
    """Three states, impossible paths in any column, and observations near
    their modeled angles or clutter; with zero clutter M <= K and M > K."""
    rng = np.random.default_rng(seed)
    p = params(K, sigma=tuple(rng.uniform(0.3, 3.0, K)), d=d, mu=mu)
    ang = np.sort(rng.uniform(-30, 30, (3, K)), axis=1)[:, ::-1].copy()
    ang[rng.random((3, K)) < 0.3] = np.nan
    det = np.where(np.isnan(ang), 0.0, d)
    near = rng.choice(ang[0], M) + rng.normal(0.0, 1.0, M)
    z = np.where(np.isnan(near) | (rng.random(M) < 0.3), rng.uniform(-30, 30, M), near)
    z = np.sort(np.clip(z, -89.0, 89.0))[::-1]
    return p, z, ang, det


def with_forcing_states(z, ang, det, d):
    """Append one state per observation with every path angle on it.

    Every (path, observation) row of a batch with these states has a
    nonzero density, so no row of the original states can be skipped.
    """
    K = ang.shape[1]
    return (
        np.vstack([ang, np.repeat(z[:, None], K, axis=1)]),
        np.vstack([det, np.full((z.size, K), d)]),
    )


def tail_states(z, sigma, d, seed):
    """Three states with every path angle 37.5 to 39 sigma from one observation.

    The rows of that observation have all their exponents in [-761, -703],
    where the density is tiny, subnormal or exactly 0.
    """
    rng = np.random.default_rng(seed)
    s = np.asarray(sigma)
    far = rng.choice([-1.0, 1.0], (3, s.size)) * rng.uniform(37.5, 39.0, (3, s.size)) * s
    return rng.choice(z) + far, np.full(far.shape, d)


# (K, M, d, mu, seed, forcing rounds): M * K * J starts at nothing, grows,
# shrinks, and grows past every earlier call
SCRATCH_SEQUENCE = [
    (3, 0, 0.9, 2.0, 4, 1),
    (1, 2, 0.9, 2.0, 1, 1),
    (4, 7, 0.9, 2.0, 2, 1),
    (2, 3, 1.0, 0.5, 3, 1),
    (3, 2, 1.0, 0.0, 5, 1),
    (4, 6, 0.9, 0.5, 6, 1),
    (4, 7, 0.9, 2.0, 7, 2),
]


def scratch_case(K, M, d, mu, seed, rounds):
    """A ``random_case`` with ``rounds`` sets of forcing states, which make
    every row live, and its marginal from the dense DP."""
    p, z, ang, det = random_case(K, M, d, mu, seed)
    for _ in range(rounds):
        ang, det = with_forcing_states(z, ang, det, d)
    want = dense_dp_marginal(z, ang, det, p.sigma_deg, p.mu_fa).tobytes()
    return (z, ang, det, p), want


class TestValidity:
    def test_identity_assignment_is_valid(self):
        assert is_valid([1, 2, 3, 4], 4)

    def test_leading_miss_then_increasing_is_valid(self):
        assert is_valid([2, 3, 0, 0], 3)

    def test_duplicate_assignment_is_invalid(self):
        assert not is_valid([1, 1, 0, 0], 2)

    def test_decreasing_assignment_is_invalid(self):
        assert not is_valid([2, 1], 2)

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            is_valid([3], 2)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
        st.integers(min_value=5, max_value=8),
    )
    def test_equivalent_to_strictly_increasing_nonzeros(self, a, M):
        nonzero = [x for x in a if x != 0]
        expected = all(x < y for x, y in zip(nonzero, nonzero[1:]))
        assert is_valid(a, M) == expected

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30)
    def test_count_valid_matches_enumeration(self, K, M):
        if K == 0:
            assert count_valid(K, M) == 1
        else:
            assert count_valid(K, M) == sum(1 for _ in valid_vectors(K, M))

    def test_count_valid_small_cases(self):
        assert count_valid(1, 1) == 2
        assert count_valid(2, 2) == 6
        assert count_valid(4, 4) == 70


class TestPathLikelihood:
    def test_peak_value(self):
        assert path_likelihood(3.0, 3.0, 0.5) == pytest.approx(
            1.0 / (0.5 * math.sqrt(2 * math.pi))
        )

    def test_one_sigma_point(self):
        peak = path_likelihood(3.0, 3.0, 0.5)
        assert path_likelihood(3.5, 3.0, 0.5) == pytest.approx(peak * math.exp(-0.5))

    def test_far_tail_is_negligible(self):
        assert path_likelihood(5.0, 0.0, 0.5) < 1e-20

    def test_impossible_path_rejected(self):
        with pytest.raises(ValueError):
            path_likelihood(3.0, float("nan"), 0.5)


class TestConditionalPdf:
    """The three canonical association scenarios, term for term."""

    def test_all_paths_detected_no_clutter(self):
        p = params(4)
        z = ObservationSet(z=np.array([11.8, 5.1, -12.5, -18.9]))
        pr = pred([11.6, 5.2, -12.6, -18.8])
        got = conditional_pdf(z, pr, [1, 2, 3, 4], p)
        want = np.prod(
            [path_likelihood(z.z[k], pr.angles_deg[k], 0.5) for k in range(4)]
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_detection_two_false_alarms(self):
        p = params(4)
        z = ObservationSet(z=np.array([40.0, -33.0]))
        got = conditional_pdf(z, pred([11.6, 5.2, -12.6, -18.8]), [0, 0, 0, 0], p)
        assert got == pytest.approx(FA * FA, rel=1e-12)

    def test_two_detections_one_false_alarm_one_miss(self):
        p = params(4)
        z = ObservationSet(z=np.array([40.0, 11.7, 5.0]))
        pr = pred([11.6, 5.2, -12.6, -18.8])
        got = conditional_pdf(z, pr, [2, 3, 0, 0], p)
        want = (
            FA
            * path_likelihood(11.7, 11.6, 0.5)
            * path_likelihood(5.0, 5.2, 0.5)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_invalid_association_rejected(self):
        p = params(2)
        z = ObservationSet(z=np.array([5.0, 1.0]))
        with pytest.raises(ValueError):
            conditional_pdf(z, pred([5.0, 1.0]), [2, 1], p)


class TestAssociationPrior:
    def test_invalid_vector_has_zero_prior(self):
        pr = pred([5.0, 1.0])
        assert association_prior([2, 1], 2, pr, params(2)) == 0.0

    def test_single_path_no_observation(self):
        pr = pred([5.0], detect=[0.9])
        got = association_prior([0], 0, pr, params(1, mu=2.0))
        assert got == pytest.approx(math.exp(-2.0) * 0.1, rel=1e-12)

    def test_undetectable_paths_leave_pure_poisson_clutter(self):
        pr = pred([float("nan"), float("nan")], detect=[0.0, 0.0])
        p = params(2, mu=1.5)
        for M in range(5):
            want = math.exp(-1.5) * 1.5**M / math.factorial(M)
            assert association_prior([0, 0], M, pr, p) == pytest.approx(want, rel=1e-12)
            # any vector that claims a detection is impossible
            if M >= 1:
                assert association_prior([1, 0], M, pr, p) == 0.0

    def test_normalizes_over_vectors_and_counts(self):
        # the prior is a joint pmf over (association vector, M); summed over
        # every valid vector and M up to a deep Poisson tail it must hit 1
        pr = pred([5.0, 1.0], detect=[0.9, 0.7])
        p = params(2, mu=3.0)
        total = 0.0
        for M in range(41):
            for a in valid_vectors(2, M):
                total += association_prior(a, M, pr, p)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestFactorR:
    def test_missed_detection_branch(self):
        z = ObservationSet(z=np.array([3.0]))
        assert unnormalized_factor_r(z, pred([3.0]), 0, 0, params(1)) == pytest.approx(0.1)

    def test_detection_branch_value(self):
        z = ObservationSet(z=np.array([3.0]))
        got = unnormalized_factor_r(z, pred([3.0]), 0, 1, params(1, mu=2.0))
        want = 0.45 * path_likelihood(3.0, 3.0, 0.5) / FA
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(64.63, abs=0.01)

    def test_impossible_path_detection_is_zero(self):
        z = ObservationSet(z=np.array([3.0]))
        pr = pred([float("nan")], detect=[0.0])
        assert unnormalized_factor_r(z, pr, 0, 1, params(1)) == 0.0


class TestMarginalLikelihood:
    def test_single_path_no_observations(self):
        z = ObservationSet(z=np.array([]))
        got = marginal_likelihood(z, pred([4.0]), params(1))
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_single_path_single_observation(self):
        p = params(1, mu=2.0)
        z = ObservationSet(z=np.array([4.2]))
        pr = pred([4.0])
        want = 0.1 + (0.9 / 2.0) * path_likelihood(4.2, 4.0, 0.5) / FA
        assert marginal_likelihood(z, pr, p) == pytest.approx(want, rel=1e-12)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(42)
        for K in (1, 2, 3, 4):
            for M in (0, 1, 2, 3, 5):
                p = params(K, sigma=tuple(rng.uniform(0.3, 2.5, K)), mu=rng.uniform(0.5, 4.0))
                for _ in range(25):
                    ang = np.sort(rng.uniform(-25, 25, K))[::-1].copy()
                    det = np.full(K, 0.9)
                    if K > 2:
                        ang[-1] = np.nan
                        det[-1] = 0.0
                    z = np.sort(rng.uniform(-30, 30, M))[::-1]
                    got = marginal_likelihood(
                        ObservationSet(z=z), PathPrediction(ang, det), p
                    )
                    want = enum_marginal(z, ang, det, p.sigma_deg, p.mu_fa)
                    assert got == pytest.approx(want, rel=1e-12)

    def test_batch_matches_enumeration(self):
        rng = np.random.default_rng(7)
        p = params(4, sigma=(0.5, 0.5, 2.0, 2.0))
        z = np.sort(rng.uniform(-30, 30, 5))[::-1]
        ang = np.sort(rng.uniform(-25, 25, (64, 4)), axis=1)[:, ::-1].copy()
        det = np.full((64, 4), 0.9)
        ang[::5, 3] = np.nan
        det[::5, 3] = 0.0
        batch = marginal_likelihood_batch(z, ang, det, p)
        for j in range(64):
            want = enum_marginal(z, ang[j], det[j], p.sigma_deg, p.mu_fa)
            assert batch[j] == pytest.approx(want, rel=1e-12)

    @given(**CASES)
    @example(K=3, M=2, d=1.0, mu=0.0, seed=1)
    @example(K=2, M=5, d=1.0, mu=0.0, seed=2)
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_enumeration_property(self, K, M, d, mu, seed):
        # the bound is relative down to 1e-300, below which single terms are subnormal
        p, z, ang, det = random_case(K, M, d, mu, seed)
        batch = marginal_likelihood_batch(z, ang, det, p)
        for j in range(3):
            want = enum_marginal(z, ang[j], det[j], p.sigma_deg, p.mu_fa)
            assert batch[j] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_rows_far_from_every_state_change_no_bit(self):
        # SB and DP states in a tight cloud: clutter 60 degrees away, and
        # observations 38.6 sigma (a subnormal density) and 39.5 sigma (an
        # exact 0) from the cloud's edge.  Forcing states make every row live.
        rng = np.random.default_rng(11)
        p = params(4, sigma=(0.5, 0.5, 2.0, 2.0))
        ang = np.column_stack(
            [rng.normal(c, 0.2, 200) for c in (12.0, 10.0, -8.0, -14.0)]
        )
        ang[::7, 2:] = np.nan
        det = np.where(np.isnan(ang), 0.0, 0.9)
        edge = np.nanmax(ang[:, 0])
        z = np.array([edge + 39.5 * 0.5, edge + 38.6 * 0.5, 11.0, 9.8, -9.0, -70.0])
        ext_ang, ext_det = with_forcing_states(z, ang, det, 0.9)
        base = marginal_likelihood_batch(z, ang, det, p)
        assert base.tobytes() == marginal_likelihood_batch(z, ext_ang, ext_det, p)[:200].tobytes()

    @given(**CASES)
    @settings(max_examples=150, deadline=None)
    def test_rows_far_from_every_state_change_no_bit_property(self, K, M, d, mu, seed):
        p, z, ang, det = random_case(K, M, d, mu, seed)
        ext_ang, ext_det = with_forcing_states(z, ang, det, d)
        ext = marginal_likelihood_batch(z, ext_ang, ext_det, p)
        assert marginal_likelihood_batch(z, ang, det, p).tobytes() == ext[:3].tobytes()
        # nor on its place in the batch: each state four times, shuffled
        order = np.random.default_rng(seed).permutation(np.repeat(np.arange(ext.size), 4))
        shuffled = marginal_likelihood_batch(z, ext_ang[order], ext_det[order], p)
        assert shuffled.tobytes() == ext[order].tobytes()

    @given(**CASES)
    @example(K=3, M=2, d=1.0, mu=0.0, seed=1)
    @example(K=2, M=5, d=1.0, mu=0.0, seed=2)
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_dense_dp_bit_for_bit(self, K, M, d, mu, seed):
        # against the plain DP over every row and count, with C- and
        # F-ordered states; the forcing states make every row live, and the
        # tail states put whole rows below the exp floor
        p, z, ang, det = random_case(K, M, d, mu, seed)
        cases = [(ang, det), with_forcing_states(z, ang, det, d)]
        if M:
            cases.append(tail_states(z, p.sigma_deg, d, seed))
        for a, dt in cases:
            want = dense_dp_marginal(z, a, dt, p.sigma_deg, p.mu_fa).tobytes()
            for order in "CF":
                a_o, dt_o = np.asarray(a, order=order), np.asarray(dt, order=order)
                assert marginal_likelihood_batch(z, a_o, dt_o, p).tobytes() == want

    @pytest.mark.parametrize("dist", [3.0, 37.5, 38.6, 39.1, -38.6, -39.1])
    def test_single_path_density_bit_for_bit_across_the_cut(self, dist):
        # K = 1, M = 1, no clutter, d = 1: the marginal is dens / f_fa.  At
        # 37.5 sigma the exponent is below -700, at 38.6 sigma the density is
        # subnormal and at 39.1 sigma it is exactly 0
        p = params(1, d=1.0, mu=0.0)
        z = np.array([10.0])
        ang = z - dist * 0.5
        u = (z - ang) / 0.5
        want = np.exp(-0.5 * u * u) / (0.5 * np.sqrt(2.0 * np.pi)) / FA
        assert (want[0] == 0.0) == (abs(dist) > 38.7)
        assert (0.0 < want[0] < np.finfo(float).tiny) == (abs(dist) == 38.6)
        got = marginal_likelihood_batch(z, ang[None], np.ones((1, 1)), p)
        assert got.tobytes() == want.tobytes()

    def test_single_impossible_path_is_zero(self):
        # beside a live state, so the observation's row is computed; d = 1
        # even at nan, so only the density itself can make the product 0
        p = params(1, d=1.0, mu=0.0)
        ang = np.array([[np.nan], [10.0]])
        got = marginal_likelihood_batch(np.array([10.0]), ang, np.ones((2, 1)), p)
        assert got[0].tobytes() == np.zeros(1).tobytes()
        assert got[1] == 1.0 / (0.5 * np.sqrt(2.0 * np.pi)) / FA

    def test_false_alarm_density_rescaling_matches_enumeration(self):
        # halving the false-alarm support doubles its density and rescales
        # every detection factor; the marginal must track the enumeration
        # under the same rescaling
        rng = np.random.default_rng(3)
        ang = np.array([8.0, 3.0, -6.0, -11.0])
        det = np.full(4, 0.9)
        z = np.sort(rng.uniform(-20, 20, 4))[::-1]
        for support in ((-90.0, 90.0), (-45.0, 45.0)):
            p = ModelParams(
                n_paths=4, sigma_deg=(0.5, 0.5, 2.0, 2.0), mu_fa=2.0, fa_support_deg=support
            )
            got = marginal_likelihood(ObservationSet(z=z), PathPrediction(ang, det), p)
            want = enum_marginal(z, ang, det, p.sigma_deg, p.mu_fa, fa_density=p.fa_density)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_clutter_limit_requires_full_association(self):
        p = params(2, d=1.0, mu=0.0)
        pr = pred([5.0, 1.0], detect=[1.0, 1.0])
        zero = marginal_likelihood(ObservationSet(z=np.array([5.0, 3.0, 1.0])), pr, p)
        assert zero == 0.0  # three observations cannot come from two paths
        got = marginal_likelihood(ObservationSet(z=np.array([5.0, 1.0])), pr, p)
        want = enum_marginal(np.array([5.0, 1.0]), pr.angles_deg, pr.detect_probs, p.sigma_deg, 0.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_scratch_never_leaks_between_calls(self):
        cases = [scratch_case(*c) for c in SCRATCH_SEQUENCE]
        sizes = [args[0].size * args[1].size for args, _ in cases]  # M * K * J
        assert sizes[0] == 0 and sizes[3] < sizes[2] and sizes[-1] > max(sizes[:-1])
        for args, want in cases:
            assert marginal_likelihood_batch(*args).tobytes() == want

    def test_scratch_is_per_thread(self):
        # the two threads alternate at every bytecode boundary they can, so
        # one buffer shared between them would be overwritten mid-call; the
        # first thread starts with M = 0, before it has a buffer of its own
        cases = [scratch_case(*c) for c in SCRATCH_SEQUENCE]
        got = {0: [], 1: []}

        def run(part):
            for _ in range(20):
                for args, _ in cases[part::2]:
                    got[part].append(marginal_likelihood_batch(*args).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(part,)) for part in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for part in (0, 1):
            assert got[part] == [want for _, want in cases[part::2]] * 20

    def test_factor_r_requires_clutter(self):
        z = ObservationSet(z=np.array([3.0]))
        with pytest.raises(ValueError):
            unnormalized_factor_r(z, pred([3.0]), 0, 1, params(1, mu=0.0))


def on_gate_edges(z, ang, sigma, seed):
    """``z`` with up to three observations exactly 39 sigma beyond the span
    of a path's angles, on either side, the first of them twice (a tie)."""
    edges = []
    for k in range(ang.shape[1]):
        col = ang[:, k]
        if not np.isnan(col).all():
            reach = 39.0 * sigma[k]
            edges += [np.nanmin(col) - reach, np.nanmax(col) + reach]
    if not edges:
        return z
    picked = np.random.default_rng(seed).choice(edges, min(len(edges), 3), replace=False)
    return np.sort(np.concatenate([z, picked, picked[:1]]))[::-1]


class TestGate:
    @staticmethod
    def assert_spans_are_mask_rows(z, ang, sigma):
        first, stop = _live_spans(z, np.ascontiguousarray(ang.T), sigma)
        for k in range(ang.shape[1]):
            want = np.flatnonzero(gate_mask(z, ang[:, k], sigma[k]))
            assert np.array_equal(np.arange(first[k], stop[k]), want), f"path {k}"

    @given(**CASES)
    @example(K=3, M=0, d=0.9, mu=2.0, seed=0)
    @example(K=1, M=4, d=0.9, mu=2.0, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_spans_select_exactly_the_mask_rows(self, K, M, d, mu, seed):
        # observations as drawn, and with some exactly on a gate's edge and
        # tied; path angles as drawn, and with path 0 impossible at every state
        p, z, ang, det = random_case(K, M, d, mu, seed)
        all_nan = ang.copy()
        all_nan[:, 0] = np.nan
        edged = on_gate_edges(z, ang, p.sigma_deg, seed)
        for obs in (z, edged):
            for a in (ang, all_nan):
                self.assert_spans_are_mask_rows(obs, a, p.sigma_deg)
        # the marginal on the edge observations is the plain DP's, bit for bit
        for a in (ang, all_nan):
            dt = np.where(np.isnan(a), 0.0, d)
            want = dense_dp_marginal(edged, a, dt, p.sigma_deg, p.mu_fa)
            assert marginal_likelihood_batch(edged, a, dt, p).tobytes() == want.tobytes()

    def test_edge_observations_are_live(self):
        # exactly 39 sigma beyond either end of the span: live, and exactly 0
        sigma = (0.5,)
        ang = np.array([[12.0], [10.0], [np.nan]])
        z = np.array([12.0 + 19.5, np.nextafter(10.0 - 19.5, -np.inf), 10.0 - 19.5])
        z = np.sort(np.append(z, np.nextafter(12.0 + 19.5, np.inf)))[::-1]
        assert _live_spans(z, np.ascontiguousarray(ang.T), sigma) == ([1], [3])
        self.assert_spans_are_mask_rows(z, ang, sigma)

    def test_unsorted_observations_rejected(self):
        ang, det = np.array([[3.0]]), np.array([[0.9]])
        with pytest.raises(ValueError, match="descending"):
            marginal_likelihood_batch(np.array([1.0, 2.0]), ang, det, params(1))
        with pytest.raises(ValueError, match="descending"):
            marginal_likelihood_batch(np.array([2.0, np.nan]), ang, det, params(1))


class TestModelParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma_deg", (0.5, float("nan"))),
            ("sigma_deg", (0.5, float("inf"))),
            ("detect_prob", float("nan")),
            ("mu_fa", float("nan")),
            ("mu_fa", float("inf")),
            ("fa_support_deg", (float("nan"), 90.0)),
        ],
    )
    def test_non_finite_values_rejected_by_name(self, field, value):
        kw = dict(n_paths=2, sigma_deg=(0.5, 0.5), detect_prob=0.9, mu_fa=2.0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            ModelParams(**kw)


class TestObservationSet:
    def test_descending_order_enforced(self):
        with pytest.raises(ValueError):
            ObservationSet(z=np.array([1.0, 2.0]))

    def test_angle_domain_enforced(self):
        with pytest.raises(ValueError):
            ObservationSet(z=np.array([95.0]))
        with pytest.raises(ValueError):
            ObservationSet(z=np.array([90.0]))  # right-open interval

    def test_non_finite_angles_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(z=np.array([np.nan, 5.0]))
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(z=np.array([np.nan]))

    @given(st.lists(st.floats(min_value=-89.9, max_value=89.9), max_size=6))
    def test_sorted_input_accepted(self, z):
        obs = ObservationSet(z=np.sort(np.array(z))[::-1])
        assert obs.M == len(z)

    def test_impossible_prediction_needs_zero_detect(self):
        with pytest.raises(ValueError):
            PathPrediction(angles_deg=np.array([np.nan]), detect_probs=np.array([0.5]))

    def test_nan_detection_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PathPrediction(angles_deg=np.array([5.0]), detect_probs=np.array([np.nan]))
