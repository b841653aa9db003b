import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from signshape import (
    estimators,
    sample_kendall_tau,
    sample_sscm,
    spatial_median,
    spatial_sign,
)

finite_coords = st.floats(allow_nan=False, allow_infinity=False)


def _normal(seed, n):
    return np.random.default_rng(seed).standard_normal((n, 2))


def test_spatial_sign_scales_to_unit():
    np.testing.assert_allclose(spatial_sign([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)


def test_spatial_sign_zero_maps_to_zero():
    np.testing.assert_array_equal(spatial_sign([0.0, 0.0, 0.0]), np.zeros(3))


def test_spatial_sign_axis_vector():
    np.testing.assert_array_equal(spatial_sign([-2.0, 0.0]), [-1.0, 0.0])


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]])
def test_spatial_sign_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        spatial_sign(bad)


@given(st.lists(finite_coords, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
@example(coords=[4.404091968103509e-161])  # squared norm underflows unscaled
@example(coords=[1e300, -1e300])  # squared norm overflows unscaled
def test_spatial_sign_norm_is_zero_or_one(coords):
    s = spatial_sign(coords)
    nrm = np.linalg.norm(s)
    assert nrm == 0.0 or abs(nrm - 1.0) < 1e-15


# no subnormals: with c >= 1e-3, c * x then keeps better than 1e-12 relative
# precision, while a subnormal x can round to zero (see the test below)
moderate_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


@given(st.lists(moderate_coords, min_size=1, max_size=6), st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_spatial_sign_positive_scale_invariant(coords, c):
    x = np.asarray(coords)
    np.testing.assert_allclose(spatial_sign(c * x), spatial_sign(x), rtol=0, atol=1e-12)


def test_spatial_sign_of_underflowed_scaling_is_zero():
    # 0.5 * 5e-324 rounds to exactly zero, and the sign of the zero vector is zero
    np.testing.assert_array_equal(spatial_sign(0.5 * np.array([5e-324])), np.zeros(1))


def _mixed_scale_rows(rng, n, p, center=None):
    """Shuffled Gaussian rows: a third scaled by 1e170 and a third by 1e-170
    (squared norms of their differences over- and underflow), every other row
    of the rest an exact duplicate of an earlier row, and one row equal to
    ``center`` (zero by default)."""
    X = rng.standard_normal((n, p))
    third = n // 3
    X[:third] *= 1e170
    X[third : 2 * third] *= 1e-170
    dup = np.arange(2 * third, n - 1, 2)
    X[dup] = X[rng.integers(0, 2 * third, dup.size)]
    X[-1] = 0.0 if center is None else center
    return rng.permutation(X)


def _sign_outer_sum(diff):
    signs = np.array([spatial_sign(d) for d in diff])
    return signs.T @ signs


class TestSpatialMedian:
    def test_equilateral_triangle_centroid(self):
        angles = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        med = spatial_median(pts)
        assert med.converged
        np.testing.assert_allclose(med.location, [0.0, 0.0], atol=1e-9)

    def test_collinear_points_give_middle(self):
        med = spatial_median(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]))
        assert med.converged
        np.testing.assert_allclose(med.location, [1.0, 0.0], atol=1e-9)
        assert med.at_data_point

    def test_symmetric_cross(self):
        med = spatial_median(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        assert med.converged
        np.testing.assert_allclose(med.location, [0.0, 0.0], atol=1e-12)

    def test_single_point(self):
        med = spatial_median(np.array([[2.0, 3.0]]))
        assert med.converged
        assert med.residual_gradient_norm == 0.0
        np.testing.assert_array_equal(med.location, [2.0, 3.0])
        assert med.at_data_point

    def test_identical_rows_return_the_row(self):
        # every row is at the start: the residual exit returns that row as it
        # is, signed zero included
        x = np.array([1.5, -0.0, 3e300, -(2.0**-1074)])
        med = spatial_median(np.tile(x, (6, 1)))
        assert med.location.tobytes() == x.tobytes()
        assert med.converged and med.at_data_point
        assert med.iterations == 0
        assert med.residual_gradient_norm == 0.0

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            spatial_median(np.empty((0, 3)))

    @pytest.mark.parametrize("offset", [(0.0, 0.0), (1e3, -7.1)])
    def test_minimizer_at_a_data_point_the_iterates_never_hit(self, offset):
        # the unit vectors from the third point to the other three sum to norm
        # 0.87 <= 1, so it minimizes; the iterates close in on it by about that
        # factor per step and would creep 260 steps to stall 1e-12 short of it
        for scale in (1.0, 3.0):
            X = np.array([[1.7, 0.0], [-1.7, 1.0], [0.0, 0.0], [1.0, -1.0]]) * scale + offset
            med = spatial_median(X)
            assert med.converged
            np.testing.assert_array_equal(med.location, X[2])
            assert med.residual_gradient_norm <= 1e-10
            assert med.iterations <= 30
            assert med.at_data_point

    def test_max_iter_exhaustion_flags_not_converged(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((200, 3))
        med = spatial_median(X, tol=1e-14, max_iter=2)
        assert not med.converged
        assert med.residual_gradient_norm > 1e-14

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 4))
        shift = np.array([5.0, -2.0, 0.5, 100.0])
        tol = 1e-10
        base = spatial_median(X, tol=tol)
        moved = spatial_median(X + shift, tol=tol)
        np.testing.assert_allclose(moved.location, base.location + shift, atol=10 * tol)

    def test_objective_dominates_probes(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            X = rng.standard_normal((50, 3)) * rng.uniform(0.5, 2.0)
            tol = 1e-10
            med = spatial_median(X, tol=tol)
            objective = lambda mu: np.linalg.norm(X - mu, axis=1).sum()
            at_median = objective(med.location)
            probes = [objective(row) for row in X]
            probes.append(objective(np.median(X, axis=0)))
            assert at_median <= min(probes) + tol * X.shape[0]

    def test_converges_on_large_offset_sample(self):
        # n = 20000 rows about 10 units from the origin: rounding in the update
        # must not hold the gradient residual above the default tol
        rng = np.random.default_rng(0)
        X = (
            rng.standard_normal((20000, 5)) * np.sqrt(rng.dirichlet(np.ones(5)))
            / np.sqrt(rng.chisquare(3, 20000) / 3.0)[:, None]
            + 10.0 * rng.standard_normal(5)
        )
        med = spatial_median(X)
        assert med.converged
        assert med.residual_gradient_norm <= 1e-10
        assert med.iterations <= 5  # Newton steps: p^2 <= n

    def test_converges_far_from_origin(self):
        # rounding at |X| = 1e4 once held the residual above the default tol
        for seed in range(5):
            X = np.random.default_rng(seed).standard_normal((20000, 5)) + 1e4
            med = spatial_median(X)
            assert med.converged, f"seed={seed}"
            assert med.residual_gradient_norm <= 1e-10
            assert np.abs(med.location - 1e4).max() < 0.05
            assert med.iterations <= 5
            assert not med.at_data_point

    @pytest.mark.parametrize("failure", ["singular", "ascent"])
    def test_newton_falls_back_to_weiszfeld(self, monkeypatch, failure):
        X = np.random.default_rng(8).standard_normal((2000, 5)) + 3.0
        reference = spatial_median(X)
        solve = np.linalg.solve

        def broken(a, b):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return -solve(a, b)

        monkeypatch.setattr(estimators.np.linalg, "solve", broken)
        med = spatial_median(X)
        assert med.converged
        assert med.residual_gradient_norm <= 1e-10
        assert med.iterations > reference.iterations
        np.testing.assert_allclose(med.location, reference.location, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("failure", ["singular", "ascent"])
    def test_one_bad_newton_step_costs_one_weiszfeld_step(self, monkeypatch, failure):
        X = np.random.default_rng(8).standard_normal((2000, 5)) + 3.0
        reference = spatial_median(X)
        solve = np.linalg.solve
        calls = []

        def first_broken(a, b):
            calls.append(None)
            if len(calls) > 1:
                return solve(a, b)
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return -solve(a, b)

        monkeypatch.setattr(estimators.np.linalg, "solve", first_broken)
        med = spatial_median(X)
        assert med.converged
        assert med.residual_gradient_norm <= 1e-10
        # Newton resumes after the one Weiszfeld step
        assert med.iterations <= reference.iterations + 1
        np.testing.assert_allclose(med.location, reference.location, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "X",
        [
            # Newton ended for good after one step that did not lower the
            # residual, and Weiszfeld steps crept for 56 and 176 iterations
            np.array([[0, 0], [1, 0], [2, 0], [0, 10], [0, 11]]) + 1e-3 * _normal(0, 5),
            _normal(0, 5) * [1, 5],
            # Newton steps kept whenever they lower the residual cycle on the
            # first two, and kept whenever they lower the residual or the
            # summed distances on the third
            _normal(1087, 5) * [1, 5],
            _normal(116, 5) * [1, 5],
            _normal(563, 10) * [1, 5],
            # beside an observation, or on a nearly flat valley, whole Newton
            # steps overshoot: Weiszfeld steps alone stop short of tol in 1000
            # iterations on the first two, and without halved Newton steps the
            # last two take 168 iterations, or stop short
            _normal(658, 5) * [1, 5],
            _normal(1400, 5) * [1, 5],
            _normal(206, 6) * [1, 5],
            _normal(152, 4) * [1, 1e-3],
        ],
        ids=["jittered-anchor", "stretched", "cycle-1087", "cycle-116", "cycle-563", "creep-658", "creep-1400",
             "beside-206", "valley-152"],
    )
    def test_newton_steps_neither_creep_nor_cycle(self, X):
        med = spatial_median(X)
        assert med.converged
        assert med.residual_gradient_norm <= 1e-10
        assert med.iterations <= 12
        diff = X - med.location
        dist = np.linalg.norm(diff, axis=1)
        away = dist > 0.0
        pull = (diff[away] / dist[away, None]).sum(axis=0)
        assert np.linalg.norm(pull) - np.count_nonzero(~away) <= 1e-9

    def test_stall_ends_the_iteration(self):
        # tol lies below what the steps can reach on this strongly anisotropic
        # sample: the residual levels off at 1.2e-10 and ran all 1000 steps
        X = np.random.default_rng(1).standard_normal((50, 2)) * [1, 1e-6]
        med = spatial_median(X)
        assert not med.converged
        assert med.iterations < 2 * estimators._STALL
        assert 1e-10 < med.residual_gradient_norm < 1.3e-10
        # the best iterate seen is returned, as at max_iter
        late = spatial_median(X, max_iter=med.iterations)
        assert late.location.tobytes() == med.location.tobytes()

    @given(
        hnp.arrays(
            float,
            st.one_of(
                st.tuples(st.integers(1, 40), st.integers(1, 4)),
                st.tuples(st.integers(1, 6), st.integers(5, 40)),
            ),
            elements=st.one_of(
                st.floats(-(2.0**1023), 2.0**1023, allow_subnormal=True),
                st.sampled_from([0.0, -1.5, 2.0**1022, -(2.0**1022), 1.75 * 2.0**1022]),
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_sort_start_is_the_coordinate_median(self, X):
        with np.errstate(over="ignore"):
            expected = np.median(X, axis=0)
        np.testing.assert_array_equal(estimators._coordinate_median(X), expected)

    def test_start_on_a_row_takes_the_anchor_step(self):
        # the coordinate-wise median (0, 0) is a row: the first step is the
        # Weiszfeld step shrunk by the multiplicity at that anchor
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 10.0], [0.0, 11.0]])
        np.testing.assert_array_equal(estimators._coordinate_median(X), X[0])
        med = spatial_median(X)
        assert med.converged and not med.at_data_point
        assert med.residual_gradient_norm <= 1e-10
        diff = X - med.location
        pull = (diff / np.linalg.norm(diff, axis=1)[:, None]).sum(axis=0)
        assert np.linalg.norm(pull) <= 1e-9
        # the anchor step skips Newton for that one step only
        assert med.iterations <= 10

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_two_middle_values_summing_past_the_largest_double(self, sign):
        # (s[h-1] + s[h]) / 2 overflows to inf there, as np.median does
        X = np.array([[1.7e308, 0.0], [1.7e308, 1.0]]) * [sign, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            med = spatial_median(X)
        assert med.converged and med.iterations == 0
        np.testing.assert_array_equal(med.location, [sign * 1.7e308, 0.5])

    @pytest.mark.parametrize(
        "scale", [1e200, 1e-200, 2.0**600, 2.0**1022], ids=["1e200", "1e-200", "2^600", "2^1022"]
    )
    def test_converges_at_extreme_scales(self, scale):
        # squared distances once overflowed to inf or underflowed to 0, and the
        # coordinate-wise median passed as converged at iteration 0; at 2^1022
        # the centring itself overflowed
        X = np.random.default_rng(0).standard_normal((50, 3))
        base = spatial_median(X)
        med = spatial_median(X * scale)
        assert base.converged and base.iterations > 0
        assert med.converged
        assert med.iterations == base.iterations
        assert med.residual_gradient_norm <= 1e-10
        np.testing.assert_allclose(med.location / scale, base.location, rtol=0, atol=1e-15)
        if scale in (2.0**600, 2.0**1022):  # exact scalings: every step scales exactly
            np.testing.assert_array_equal(med.location, base.location * scale)


class TestSampleSscm:
    def test_cross_with_known_center(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        est = sample_sscm(X, center=[0.0, 0.0])
        np.testing.assert_allclose(est.matrix, np.diag([0.5, 0.5]), atol=1e-15)
        assert est.kind == "sscm"
        assert est.n_used == 4

    def test_collinear_data_is_rank_one(self):
        X = np.array([[2.0, 0.0], [-5.0, 0.0], [7.0, 0.0]])
        est = sample_sscm(X, center=[0.5, 0.0])
        np.testing.assert_allclose(est.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_single_observation_rank_one(self):
        est = sample_sscm(np.array([[1.0, 1.0]]), center=[0.0, 0.0])
        np.testing.assert_allclose(est.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_observation_at_center_contributes_zero(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        est = sample_sscm(X, center=[0.0, 0.0])
        assert abs(np.trace(est.matrix) - 4.0 / 5.0) < 1e-12

    def test_trace_matches_nonzero_fraction(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((37, 5))
        est = sample_sscm(X)
        assert abs(np.trace(est.matrix) - 1.0) < 1e-12

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((40, 6))
        # neither estimator symmetrizes after the fact: S^T S, M + M^T and sums of
        # such are exactly symmetric
        for M in (sample_sscm(X).matrix, sample_kendall_tau(X).matrix):
            np.testing.assert_array_equal(M, M.T)
            for _ in range(20):
                v = rng.standard_normal(6)
                assert v @ M @ v >= -1e-14

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((30, 4))
        mu = rng.standard_normal(4)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = sample_sscm(X, center=mu).matrix
        rotated = sample_sscm(X @ Q.T, center=Q @ mu).matrix
        np.testing.assert_allclose(rotated, Q @ base @ Q.T, atol=1e-10)

    def test_radial_invariance(self):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((25, 3))
        mu = np.zeros(3)
        scales = rng.uniform(0.1, 10.0, size=25)
        base = sample_sscm(X, center=mu).matrix
        scaled = sample_sscm(X * scales[:, None], center=mu).matrix
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_matches_per_row_reference_at_extreme_scales(self):
        rng = np.random.default_rng(26)
        mu = 1e-170 * rng.standard_normal(4)
        X = _mixed_scale_rows(rng, 40, 4, center=mu)
        est = sample_sscm(X, center=mu)
        expected = _sign_outer_sum(X - mu) / len(X)
        np.testing.assert_allclose(est.matrix, expected, rtol=0, atol=1e-13)
        assert abs(np.trace(est.matrix) - 39.0 / 40.0) < 1e-13

    def test_differences_beyond_the_double_range(self):
        # X - center overflows; halving first keeps every sign
        X = np.array([[1e308, 0.0], [-1e308, 1.0]])
        center = np.array([-1e308, 0.0])
        est = sample_sscm(X, center=center)
        expected = _sign_outer_sum(0.5 * X - 0.5 * center) / len(X)
        assert np.all(np.isfinite(est.matrix))
        np.testing.assert_allclose(est.matrix, expected, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(est.center, center)

    def test_p_larger_than_n(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((5, 40))
        est = sample_sscm(X)
        assert est.matrix.shape == (40, 40)
        assert abs(np.trace(est.matrix) - 1.0) < 1e-12

    def test_keeps_its_spatial_signs(self):
        rng = np.random.default_rng(27)
        X = rng.standard_normal((6, 9))
        est = sample_sscm(X)
        assert est.signs.shape == (6, 9)
        expected = np.array([spatial_sign(row) for row in X - est.center])
        np.testing.assert_allclose(est.signs, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(est.matrix, est.signs.T @ est.signs / 6)

    @pytest.mark.parametrize("n, p", [(50, 400), (2000, 5)])
    def test_matrix_is_formed_from_the_signs_on_first_read(self, n, p):
        X = np.random.default_rng(28).standard_normal((n, p))
        est = sample_sscm(X)
        assert "matrix" not in vars(est)
        mat = est.matrix
        np.testing.assert_array_equal(mat, est.signs.T @ est.signs / n)
        assert est.matrix is mat
        assert "matrix" not in {f.name for f in dataclasses.fields(est)}

    def test_given_matrix_is_kept(self):
        X = np.random.default_rng(29).standard_normal((20, 3))
        kendall = sample_kendall_tau(X)
        assert kendall.signs is None and kendall.matrix is kendall.matrix
        mat = np.eye(3) / 3
        assert estimators.SscmEstimate(mat, "sscm", 10, np.zeros(3)).matrix is mat
        assert estimators.SscmEstimate(matrix=mat, kind="sscm", n_used=10, center=None).matrix is mat
        with pytest.raises(ValueError):
            estimators.SscmEstimate(None, "sscm", 10, np.zeros(3))

    def test_rejects_bad_center_shape(self):
        with pytest.raises(ValueError):
            sample_sscm(np.eye(3), center=[0.0, 0.0])

    def test_rejects_non_finite_data(self):
        with pytest.raises(ValueError):
            sample_sscm(np.array([[1.0, np.nan]]))


class TestKendallTau:
    def test_two_points(self):
        est = sample_kendall_tau(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(est.matrix, np.diag([1.0, 0.0]), atol=1e-15)
        assert est.center is None
        assert est.kind == "kendall_tau"

    def test_three_point_enumeration(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        # brute-force oracle: average outer products over the three pairs
        expected = np.zeros((2, 2))
        n = len(X)
        for i in range(n):
            for j in range(i + 1, n):
                d = X[i] - X[j]
                s = d / np.linalg.norm(d)
                expected += np.outer(s, s)
        expected /= n * (n - 1) / 2
        est = sample_kendall_tau(X)
        np.testing.assert_allclose(est.matrix, expected, atol=1e-15)
        np.testing.assert_allclose(
            est.matrix, [[0.5, -1.0 / 6.0], [-1.0 / 6.0, 0.5]], atol=1e-15
        )

    def test_identical_observations_give_zero_matrix(self):
        X = np.tile([1.5, -2.0, 3.0], (6, 1))
        est = sample_kendall_tau(X)
        np.testing.assert_array_equal(est.matrix, np.zeros((3, 3)))

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            sample_kendall_tau(np.array([[1.0, 2.0]]))

    def test_matches_bruteforce_on_random_data(self):
        # Gaussian data, rows at extreme scales with duplicates, and n beyond
        # one 512-row block, each against a per-pair spatial_sign reference
        rng = np.random.default_rng(31)
        for X in (rng.standard_normal((23, 4)), _mixed_scale_rows(rng, 40, 4), _mixed_scale_rows(rng, 600, 3)):
            n = len(X)
            expected = sum(_sign_outer_sum(X[i + 1 :] - X[i]) for i in range(n - 1))
            expected /= n * (n - 1) / 2
            est = sample_kendall_tau(X)
            np.testing.assert_allclose(est.matrix, expected, rtol=0, atol=1e-13, err_msg=f"n={n}")

    def test_differences_beyond_the_double_range(self):
        # X[0] - X[1] overflows; halving first keeps every sign
        X = np.array([[1e308, 0.0], [-1e308, 1.0], [0.0, 0.0]])
        half = 0.5 * X
        expected = sum(_sign_outer_sum(half[i + 1 :] - half[i]) for i in range(2)) / 3
        est = sample_kendall_tau(X)
        assert est.signs is None
        assert np.all(np.isfinite(est.matrix))
        np.testing.assert_allclose(est.matrix, expected, rtol=0, atol=1e-13)

    def test_pair_counts(self):
        X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        est = sample_kendall_tau(X)
        assert est.pairs == estimators.PairCounts(total=6, zero=3, direct=est.pairs.direct)
        assert est.pairs.direct >= 3
        assert abs(np.trace(est.matrix) - 0.5) < 1e-15
        assert sample_sscm(X).pairs is None


def _kendall_by_rows(X):
    """Kendall's tau summed one row against the later rows at a time; only for
    data whose squared differences are zero or normal doubles."""
    n = len(X)
    total = np.zeros((X.shape[1],) * 2)
    for i in range(n - 1):
        diff = X[i + 1 :] - X[i]
        sq = np.einsum("ij,ij->i", diff, diff)
        assert np.all((sq == 0.0) | (sq >= np.finfo(float).tiny) & np.isfinite(sq))
        signs = diff / np.where(sq == 0.0, 1.0, np.sqrt(sq))[:, None]
        total += signs.T @ signs
    return total / (n * (n - 1) // 2)


def _row_at_mean(rng):
    # dyadic rows symmetric about c, one of them c itself: every sum is exact,
    # so the column mean is exactly that row
    half = np.round(rng.standard_normal((150, 4)) * 2.0**20) / 2.0**20
    return np.array([3.0, -7.0, 11.0, 2.0]) + np.vstack([half, -half, np.zeros((1, 4))])


def _tiny_pairs(rng):
    # rows 2^-511 from the centre after scaling: their pairs' weights would be
    # near 2^1020 on the Gram path, and sixteen such partners overflow a row sum
    tiny = np.zeros((32, 2))
    tiny[:16, 1], tiny[16:, 1] = 2.0**-510, -(2.0**-510)
    return np.vstack([[[1.0, 0.0], [-1.0, 0.0]], tiny])


def _outlier(rng):
    # one far row pulls the column mean 1e3 from the bulk, but not the
    # coordinate-wise median that the Gram path centres at
    X = rng.standard_normal((400, 10))
    X[0] += 1e6
    return X


def _two_clusters(rng):
    X = rng.standard_normal((300, 6))
    X[:150, 0] += 1e4
    return X


KENDALL_CASES = {
    "near_duplicates": lambda rng: np.repeat(rng.standard_normal((30, 5)), 10, axis=0)
    + 1e-12 * rng.standard_normal((300, 5)),
    "two_clusters": _two_clusters,
    "offset": lambda rng: rng.standard_normal((300, 4)) + 1e6,
    "column_scales": lambda rng: rng.standard_normal((300, 4)) * np.exp([8.0, -8.0, 8.0, -8.0]),
    "row_at_mean": _row_at_mean,
    "wide": lambda rng: rng.standard_normal((50, 400)),
    "ragged_block": lambda rng: rng.standard_normal((1100, 3)),
    "gaussian": lambda rng: rng.standard_normal((2000, 10)),
    "tiny_pairs": _tiny_pairs,
    "outlier": _outlier,
}


@pytest.mark.parametrize("case", sorted(KENDALL_CASES))
def test_kendall_matches_the_pairwise_reference(case):
    X = KENDALL_CASES[case](np.random.default_rng(43))
    n = len(X)
    if case == "row_at_mean":
        np.testing.assert_array_equal(X.mean(axis=0), X[-1])
    if n < 1000:
        expected = sum(_sign_outer_sum(X[i + 1 :] - X[i]) for i in range(n - 1)) / (n * (n - 1) // 2)
    else:
        expected = _kendall_by_rows(X)
    est = sample_kendall_tau(X)
    np.testing.assert_allclose(est.matrix, expected, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(est.matrix, est.matrix.T)
    total, zero, direct = est.pairs
    assert total == n * (n - 1) // 2 and 0 <= zero <= direct <= total
    assert abs(np.trace(est.matrix) - (1.0 - zero / total)) <= 1e-13
    if case in ("near_duplicates", "two_clusters"):
        # pairs within a tight cluster: their centred rows nearly cancel
        assert direct > 0
    if case == "gaussian":
        # only the rare pair nearly aligned with the centre, at like norms, goes direct
        assert direct <= 1e-5 * total
    if case == "tiny_pairs":
        # the 256 pairs of opposite tiny rows, and the 240 of like ones
        assert direct >= 2 * 16 * 15 // 2 + 16 * 16
    if case == "outlier":
        assert direct <= 1e-3 * total


def test_kendall_direct_pairs_in_bounded_memory():
    # within each cluster every pair goes direct: 89,700 differences of 200
    # doubles (144 MB at once), formed 512 at a time
    rng = np.random.default_rng(44)
    X = 1e-3 * rng.standard_normal((600, 200))
    X[:300, 0] += 1e4
    tracemalloc.start()
    try:
        est = sample_kendall_tau(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.pairs.direct >= 2 * 300 * 299 // 2
    assert peak < 50e6, peak


def test_kendall_at_p_much_above_n_holds_one_p_by_p_array():
    # the p x p result is 32 MB; a second one for mat + mat^T would double the peak
    p = 2000
    X = np.random.default_rng(45).standard_normal((100, p))
    tracemalloc.start()
    try:
        est = sample_kendall_tau(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(est.matrix, est.matrix.T)
    assert peak < 1.3 * 8 * p * p, peak


@pytest.mark.parametrize("p", [1, 7, 512, 1100])
def test_blocked_transpose_sum_matches_the_plain_one(p):
    # 1100 rows take two full 512-row blocks and a partial one
    mat = np.random.default_rng(p).standard_normal((p, p))
    expected = mat + mat.T
    estimators._add_transpose(mat)
    np.testing.assert_array_equal(mat, expected)
