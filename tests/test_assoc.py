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
    _densities,
    _gate_width,
    _live_spans,
    _log_marginal_bound,
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
    gate_width,
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
        # wherever it stands, also after an order fault; the prior shares the check
        for a in ([3], [2, 1, 3], [0, 3, 1]):
            with pytest.raises(ValueError, match=r"association entry 3 outside 0\.\.2"):
                is_valid(a, 2)
            with pytest.raises(ValueError, match=r"association entry 3 outside 0\.\.2"):
                association_prior(a, 2, pred(np.linspace(5.0, 1.0, len(a))), params(len(a)))

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

    def test_a_weight_is_the_same_in_every_batch(self):
        # K = 4, M = 0..9, impossible paths anywhere: a state's weight is the
        # same bit for bit alone, through the one-state wrapper, and in a
        # batch of 1 to 257 states as in one of 1000, at the front of the
        # batch or elsewhere
        rng = np.random.default_rng(28)
        for _ in range(40):
            M = int(rng.integers(0, 10))
            p = params(4, sigma=tuple(rng.uniform(0.3, 3.0, 4)))
            ang = np.sort(rng.uniform(-30, 30, (1000, 4)), axis=1)[:, ::-1].copy()
            ang[rng.random(ang.shape) < 0.2] = np.nan
            det = np.where(np.isnan(ang), 0.0, 0.9)
            near = rng.choice(ang[0], M) + rng.normal(0.0, 1.0, M)
            z = np.sort(np.where(np.isnan(near), rng.uniform(-30, 30, M), near))[::-1]
            whole = marginal_likelihood_batch(z, ang, det, p)
            for n in (1, 2, 3, 4, 5, 8, 17, 64, 257):
                for pick in (np.arange(n), rng.choice(1000, n, replace=False)):
                    assert marginal_likelihood_batch(z, ang[pick], det[pick], p).tobytes() == whole[pick].tobytes()
            for j in rng.choice(1000, 5, replace=False):
                alone = marginal_likelihood(ObservationSet(z=z), PathPrediction(ang[j], det[j]), p)
                assert np.float64(alone).tobytes() == whole[j].tobytes()

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

    def test_zero_clutter_limit_requires_full_association(self):
        p = params(2, d=1.0, mu=0.0)
        pr = pred([5.0, 1.0], detect=[1.0, 1.0])
        zero = marginal_likelihood(ObservationSet(z=np.array([5.0, 3.0, 1.0])), pr, p)
        assert zero == 0.0  # three observations cannot come from two paths
        got = marginal_likelihood(ObservationSet(z=np.array([5.0, 1.0])), pr, p)
        want = enum_marginal(np.array([5.0, 1.0]), pr.angles_deg, pr.detect_probs, p.sigma_deg, 0.0)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("K_angles, K_model", [(2, 4), (4, 2)])
    def test_path_count_must_match_the_model(self, K_angles, K_model):
        ang = np.linspace(10.0, -10.0, K_angles)[None, :]
        det = np.full_like(ang, 0.9)
        with pytest.raises(ValueError, match=f"angles_deg has {K_angles} paths, the model {K_model}"):
            marginal_likelihood_batch(np.array([1.0]), ang, det, params(K_model))

    @pytest.mark.parametrize("det_shape", [(1, 2), (2, 4)])
    def test_detection_probabilities_must_match_the_angles(self, det_shape):
        ang = np.linspace(10.0, -10.0, 4)[None, :]
        det = np.full(det_shape, 0.9)
        with pytest.raises(ValueError, match="detect_probs"):
            marginal_likelihood_batch(np.array([1.0]), ang, det, params(4))

    @pytest.mark.parametrize("mu, log_bound", [(1e-70, None), (1e-75, 721), (1e-300, 2794)])
    def test_a_clutter_mean_whose_marginal_would_overflow_is_refused(self, mu, log_bound):
        # K = 4, default sigmas, M = 6, J = 10**3: the bound K! ((M + 1) R)**K
        # on the marginal is e^675 at mu = 1e-70, whose weights stay finite
        # with no overflow warning, and beyond the float range below it
        rng = np.random.default_rng(0)
        ang = np.sort(rng.uniform(-20.0, 20.0, (1000, 4)), axis=1)[:, ::-1].copy()
        det = np.full(ang.shape, 0.9)
        z = np.sort(rng.choice(ang.reshape(-1), 6) + rng.normal(0.0, 0.3, 6))[::-1].copy()
        p = params(4, sigma=(0.5, 0.5, 2.0, 2.0), mu=mu)
        if log_bound is None:
            w = marginal_likelihood_batch(z, ang, det, p)
            assert np.isfinite(w).all() and w.max() > 1e280
            return
        with pytest.raises(ValueError, match=rf"^mu_fa: must be 0, for no clutter, .*e\^{log_bound} here\), got {mu}$"):
            marginal_likelihood_batch(z, ang, det, p)

    @pytest.mark.parametrize("mu", [1e-320, 5e-324])
    def test_a_subnormal_clutter_mean_is_refused_with_no_warning(self, mu):
        # sigma_k sqrt(2 pi) f_fa mu is subnormal at 1e-320 and 0 at 5e-324,
        # so d_k over it overflows or divides by 0, and a path never detected
        # gives 0/0; the bound is inf and refused, and numpy warns of none of it
        ang = np.array([[20.0, 5.0, np.nan, -3.0]] * 3)
        det = np.where(np.isnan(ang), 0.0, 0.9)
        p = params(4, sigma=(0.5, 0.5, 2.0, 2.0), mu=mu)
        with pytest.raises(ValueError, match=rf"^mu_fa: must be 0, for no clutter, .*e\^inf here\), got {mu}$"):
            marginal_likelihood_batch(np.array([20.0, 5.0, -3.0]), ang, det, p)

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


def on_gate_edges(z, ang, sigma, seed, gate):
    """``z`` with up to three observations exactly ``gate`` sigma beyond the
    span of a path's angles, on either side, the first of them twice (a tie).
    Which edges are picked depends on ``seed`` and the paths, not on ``gate``."""
    edges = []
    for k in range(ang.shape[1]):
        col = ang[:, k]
        if not np.isnan(col).all():
            reach = gate * sigma[k]
            edges += [np.nanmin(col) - reach, np.nanmax(col) + reach]
    if not edges:
        return z
    picked = np.random.default_rng(seed).choice(edges, min(len(edges), 3), replace=False)
    return np.sort(np.concatenate([z, picked, picked[:1]]))[::-1]


def batch_gate(z, det, p):
    """The gate ``marginal_likelihood_batch`` uses for (J, K) ``det``, checked
    against the oracle's."""
    det_k = np.ascontiguousarray(det.T)
    d = det_k.max(axis=1, initial=0.0)
    gate = _gate_width(det_k, d, _log_marginal_bound(d, p, z.size) if p.mu_fa > 0.0 else math.inf, p.mu_fa)
    assert gate == pytest.approx(gate_width(det, p.sigma_deg, p.mu_fa, z.size), rel=1e-12)
    return gate


class TestGate:
    @staticmethod
    def assert_spans_are_mask_rows(z, ang, sigma, gate):
        first, stop = _live_spans(z, np.ascontiguousarray(ang.T), sigma, gate)
        for k in range(ang.shape[1]):
            want = np.flatnonzero(gate_mask(z, ang[:, k], sigma[k], gate))
            assert np.array_equal(np.arange(first[k], stop[k]), want), f"path {k}"

    @given(**CASES)
    @example(K=3, M=0, d=0.9, mu=2.0, seed=0)
    @example(K=1, M=4, d=0.9, mu=2.0, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_spans_select_exactly_the_mask_rows(self, K, M, d, mu, seed):
        # observations as drawn, and with some exactly on a gate's edge and
        # tied; path angles as drawn, and with path 0 impossible at every
        # state; at the cap of 39 sigma and at the width computed for the call
        p, z, ang, det = random_case(K, M, d, mu, seed)
        all_nan = ang.copy()
        all_nan[:, 0] = np.nan
        for a in (ang, all_nan):
            dt = np.where(np.isnan(a), 0.0, d)
            n_edged = on_gate_edges(z, a, p.sigma_deg, seed, 39.0).size
            for gate in (39.0, batch_gate(z, dt, p), batch_gate(np.zeros(n_edged), dt, p)):
                edged = on_gate_edges(z, a, p.sigma_deg, seed, gate)
                for obs in (z, edged):
                    self.assert_spans_are_mask_rows(obs, a, p.sigma_deg, gate)
                # the marginal on the edge observations is the plain DP's, bit
                # for bit: rows at the computed width are live, at 39 exactly 0
                want = dense_dp_marginal(edged, a, dt, p.sigma_deg, p.mu_fa)
                assert marginal_likelihood_batch(edged, a, dt, p).tobytes() == want.tobytes()

    def test_edge_observations_are_live(self):
        # exactly the gate's width beyond either end of the span: live, and
        # exactly 0 at 39 sigma; with clutter the width is the floor's
        sigma = (0.5,)
        ang = np.array([[12.0], [10.0], [np.nan]])
        det = np.where(np.isnan(ang), 0.0, 0.9)
        for mu in (2.0, 0.0):
            p = params(1, sigma=sigma, mu=mu)
            gate = batch_gate(np.zeros(4), det, p)
            assert (gate < 13.0) == (mu > 0.0)
            z = np.array([12.0 + gate * 0.5, np.nextafter(10.0 - gate * 0.5, -np.inf), 10.0 - gate * 0.5])
            z = np.sort(np.append(z, np.nextafter(12.0 + gate * 0.5, np.inf)))[::-1]
            assert _live_spans(z, np.ascontiguousarray(ang.T), sigma, gate) == ([1], [3])
            self.assert_spans_are_mask_rows(z, ang, sigma, gate)
            want = dense_dp_marginal(z, ang, det, sigma, mu)
            assert marginal_likelihood_batch(z, ang, det, p).tobytes() == want.tobytes()

    def test_a_reach_beyond_the_float_range_makes_every_row_live(self):
        # 39 * 1e308 is inf, with no numpy warning: every row of a path with
        # an angle is live, and a path with none still has no row
        z = np.array([80.0, 10.0, -89.0])
        ang = np.array([[12.0, np.nan], [-60.0, np.nan]])
        assert _live_spans(z, np.ascontiguousarray(ang.T), (1e308, 1e308), 39.0) == ([0, 3], [3, 3])

    def test_width_for_the_default_models(self):
        # 14.0-15.0 sigma at K = 4 and 12.77-13.3 at K = 2 for M = 0..30,
        # growing with M
        for K, sigma, mu, lo, hi in [(4, (0.5, 0.5, 2.0, 2.0), 2.0, 14.0, 15.0), (2, (0.5, 0.5), 4.0, 12.7, 13.3)]:
            p = params(K, sigma=sigma, mu=mu)
            det = np.full((10, K), 0.9)
            det[::3, -1] = 0.0
            widths = [batch_gate(np.zeros(M), det, p) for M in range(31)]
            assert lo <= widths[0] and widths[-1] <= hi
            assert widths == sorted(widths)

    @given(
        K=st.integers(min_value=1, max_value=4),
        M=st.integers(min_value=0, max_value=30),
        d=st.sampled_from([0.0, 0.05, 0.5, 0.9, 0.999, 1.0 - 2.0**-53, 1.0, 1.5, -0.1, np.nan]),
        mu=st.sampled_from([0.0, 1e-300, 0.05, 2.0, 50.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_width_matches_its_definition(self, K, M, d, mu, seed):
        # one path's probabilities at d, the others drawn in [0, 1); no
        # floor without clutter or at a probability of 1 or outside [0, 1],
        # which is found before any division by 0 or log of 0
        rng = np.random.default_rng(seed)
        p = params(K, sigma=tuple(rng.uniform(0.3, 3.0, K)), mu=mu)
        det = rng.uniform(0.0, 0.99, (5, K))
        det[:, rng.integers(K)] = d
        with np.errstate(all="raise"):
            gate = batch_gate(np.zeros(M), det, p)
        floorless = mu == 0.0 or not 0.0 <= d < 1.0
        assert gate == 39.0 if floorless else 0.0 < gate <= 39.0

    @given(
        M=st.integers(min_value=0, max_value=11),
        d=st.floats(min_value=0.05, max_value=0.999),
        mu=st.floats(min_value=0.05, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(M=11, d=0.999, mu=0.05, seed=0)
    @example(M=0, d=0.999, mu=0.05, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_rows_beyond_the_width_move_the_marginal_by_under_2_pow_minus_100(self, M, d, mu, seed):
        # K = 4 paths near the observations, and one more observation just
        # beyond the gate of the narrowest path at every state: its row is
        # skipped for that path, which changes every state's marginal by less
        # than 2**-100 of it against the dense DP over every row
        rng = np.random.default_rng(seed)
        sigma = tuple(rng.uniform(0.3, 3.0, 4))
        p = params(4, sigma=sigma, d=d, mu=mu)
        ang = np.sort(rng.uniform(-20.0, 20.0, (6, 4)), axis=1)[:, ::-1].copy()
        det = np.full(ang.shape, d)
        narrow = int(np.argmin(sigma))
        near = rng.choice(ang.reshape(-1), M) + rng.normal(0.0, 1.0, M)
        gate = batch_gate(np.zeros(M + 1), det, p)
        beyond = np.nextafter(ang[:, narrow].max() + gate * sigma[narrow], np.inf)
        z = np.sort(np.append(near, beyond))[::-1]
        first, stop = _live_spans(z, np.ascontiguousarray(ang.T), sigma, gate)
        assert not first[narrow] <= int(np.flatnonzero(z == beyond)[0]) < stop[narrow]
        dense = dense_dp_marginal(z, ang, det, sigma, mu)
        batch = marginal_likelihood_batch(z, ang, det, p)
        assert (dense > 0.0).all()
        assert (np.abs(dense - batch) <= 2.0**-100 * dense).all()

    @pytest.mark.parametrize("mu, d1", [(0.0, 0.9), (2.0, 1.0)])
    def test_no_floor_keeps_rows_up_to_39_sigma(self, mu, d1):
        # without clutter, or with a path that is always detected, no floor
        # bounds the marginal: a row 20 sigma from every state stays live
        # and is all that keeps the marginal above 0
        p = params(2, d=0.9, mu=mu)
        ang = np.array([[5.0, -5.0], [5.2, -5.1]])
        det = np.array([[0.9, d1], [0.9, d1]])
        z = np.array([5.1, -5.0 - 20.0 * 0.5 - 0.2])
        assert batch_gate(z, det, p) == 39.0
        assert _live_spans(z, np.ascontiguousarray(ang.T), p.sigma_deg, 39.0)[1][1] == 2
        want = dense_dp_marginal(z, ang, det, p.sigma_deg, mu)
        got = marginal_likelihood_batch(z, ang, det, p)
        assert got.tobytes() == want.tobytes()
        assert (got > 0.0).all() and (got < 1e-80).all()

    def test_unsorted_observations_rejected(self):
        ang, det = np.array([[3.0]]), np.array([[0.9]])
        with pytest.raises(ValueError, match="descending"):
            marginal_likelihood_batch(np.array([1.0, 2.0]), ang, det, params(1))
        with pytest.raises(ValueError, match="descending"):
            marginal_likelihood_batch(np.array([2.0, np.nan]), ang, det, params(1))


def split_case(K, M, d, mu, seed):
    """Three states with the paths' angles in two clusters, 25..35 and
    -35..-25 degrees (the first ceil(K / 2) paths in the upper one), sigma
    at most 0.25 and some angles ``nan``; M observations near state 0's
    angles, and one to three more in -5..5, over 80 sigma from every angle,
    which no path's gate reaches."""
    rng = np.random.default_rng(seed)
    p = params(K, sigma=tuple(rng.uniform(0.05, 0.25, K)), d=d, mu=mu)
    n_hi = (K + 1) // 2
    ang = np.hstack([rng.uniform(25.0, 35.0, (3, n_hi)), rng.uniform(-35.0, -25.0, (3, K - n_hi))])
    ang = np.sort(ang, axis=1)[:, ::-1].copy()
    ang[1:][rng.random((2, K)) < 0.3] = np.nan
    det = np.where(np.isnan(ang), 0.0, d)
    near = rng.choice(ang[0], M) + rng.normal(0.0, 0.2, M)
    mid = rng.uniform(-5.0, 5.0, rng.integers(1, 4))
    z = np.sort(np.concatenate([near, mid]))[::-1]
    return p, z, ang, det, mid


def live_rows(z, ang, det, p) -> set:
    """The union of the rows that ``marginal_likelihood_batch`` computes."""
    first, stop = _live_spans(z, np.ascontiguousarray(ang.T), p.sigma_deg, batch_gate(z, det, p))
    return {m for f, e in zip(first, stop) for m in range(f, e)}


class TestUnreachedRows:
    """Observations that no path's gate reaches: the DP runs on the union of
    the live rows alone, and the result is still the dense DP's bit for bit."""

    @given(
        K=st.integers(min_value=1, max_value=4),
        M=st.integers(min_value=0, max_value=5),
        d=st.sampled_from([0.9, 1.0]),
        mu=st.sampled_from([0.0, 0.5, 2.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(K=4, M=4, d=0.9, mu=2.0, seed=0)
    @example(K=4, M=2, d=0.9, mu=0.0, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_rows_no_gate_reaches_change_no_bit(self, K, M, d, mu, seed):
        p, z, ang, det, mid = split_case(K, M, d, mu, seed)
        unreached = set(np.flatnonzero(np.isin(z, mid)).tolist())
        assert not unreached & live_rows(z, ang, det, p)
        want = dense_dp_marginal(z, ang, det, p.sigma_deg, p.mu_fa)
        got = marginal_likelihood_batch(z, ang, det, p)
        assert got.tobytes() == want.tobytes()
        if mu == 0.0:
            # no clutter and a row no path explains: no association explains
            # every observation
            assert got.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("mu", [2.0, 0.0])
    def test_row_between_live_rows(self, mu):
        # rows 0 and 2 live, row 1 50 sigma from every path; at mu = 0 with
        # M = K = 3 the marginal is exactly 0, with clutter it is positive
        p = params(3, mu=mu)
        ang = np.array([[40.0, -10.0, -30.0], [40.1, -10.2, -30.4], [39.8, -9.9, np.nan]])
        det = np.where(np.isnan(ang), 0.0, 0.9)
        z = np.array([40.2, 15.0, -10.3])
        rows = live_rows(z, ang, det, p)
        assert 1 not in rows and {0, 2} <= rows
        want = dense_dp_marginal(z, ang, det, p.sigma_deg, mu)
        got = marginal_likelihood_batch(z, ang, det, p)
        assert got.tobytes() == want.tobytes()
        assert (got == 0.0).all() if mu == 0.0 else (got > 0.0).all()

    @pytest.mark.parametrize("mu", [2.0, 0.0])
    def test_nan_angles_with_every_exponent_above_the_floor(self, mu):
        # path 1 is impossible at state 1 and every live row of it lies
        # within 11 sigma of its other angles: its densities take the
        # nan-only branch, exp and then 0 at the nan
        p = params(2, sigma=(0.5, 2.0), mu=mu)
        ang = np.array([[10.0, -10.0], [10.3, np.nan], [9.8, -10.5]])
        det = np.where(np.isnan(ang), 0.0, 0.9)
        z = np.array([10.2, 9.9, -9.7, -10.4])
        first, stop = _live_spans(z, np.ascontiguousarray(ang.T), p.sigma_deg, batch_gate(z, det, p))
        assert (first[1], stop[1]) == (0, 4)
        u = (z[:, None] - ang[:, 1]) / 2.0
        x = -0.5 * u * u
        assert np.isnan(x).any() and np.nanmin(x) >= -700.0
        dens = _densities(z, ang[:, 1], 2.0)
        with np.errstate(invalid="ignore"):
            plain = np.where(np.isnan(x), 0.0, np.exp(x) / (2.0 * np.sqrt(2.0 * np.pi)))
        assert dens.tobytes() == plain.tobytes()
        want = dense_dp_marginal(z, ang, det, p.sigma_deg, mu)
        assert marginal_likelihood_batch(z, ang, det, p).tobytes() == want.tobytes()

    def test_densities_with_nan_and_exponents_below_the_floor(self):
        # nan beside exponents in [-746, -700) and below: the clipped branch
        z = np.array([10.0, -8.0, -8.9, -9.5])
        ang = np.array([10.0, np.nan, 9.0])
        x = -0.5 * ((z[:, None] - ang) / 0.5) ** 2
        assert np.nanmin(x) < -746.0 and ((x >= -746.0) & (x < -700.0)).any()
        with np.errstate(invalid="ignore"):
            plain = np.where(np.isnan(x), 0.0, np.exp(x) / (0.5 * np.sqrt(2.0 * np.pi)))
        assert _densities(z, ang, 0.5).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("mu", [2.0, 0.0])
    @pytest.mark.parametrize("impossible", [False, True])
    def test_no_live_row_at_all(self, mu, impossible):
        # every observation over 100 sigma from every path, or every path
        # impossible at every state: only the all-miss term is left, and
        # without clutter nothing explains the observations
        p = params(2, mu=mu)
        ang = np.full((4, 2), np.nan) if impossible else np.array([[10.0, -10.0], [11.0, -9.0]] * 2)
        det = np.where(np.isnan(ang), 0.0, 0.9)
        z = np.array([70.0, -80.0])
        assert live_rows(z, ang, det, p) == set()
        want = dense_dp_marginal(z, ang, det, p.sigma_deg, mu)
        got = marginal_likelihood_batch(z, ang, det, p)
        assert got.tobytes() == want.tobytes()
        assert (got == 0.0).all() if mu == 0.0 else (got > 0.0).all()


class TestModelParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma_deg", (0.5, float("nan"))),
            ("sigma_deg", (0.5, float("inf"))),
            ("detect_prob", float("nan")),
            ("mu_fa", float("nan")),
            ("mu_fa", float("inf")),
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

    @pytest.mark.parametrize("z", [5.0, [[5.0], [1.0]]], ids=["scalar", "column"])
    def test_angles_must_form_a_list(self, z):
        with pytest.raises(ValueError, match="must form a list"):
            ObservationSet(z=np.array(z))

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
