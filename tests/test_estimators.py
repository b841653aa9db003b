import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signshape import (
    sample_kendall_tau,
    sample_sscm,
    spatial_median,
    spatial_sign,
)

finite_coords = st.floats(allow_nan=False, allow_infinity=False)


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

    def test_symmetric_cross(self):
        med = spatial_median(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        assert med.converged
        np.testing.assert_allclose(med.location, [0.0, 0.0], atol=1e-12)

    def test_single_point(self):
        med = spatial_median(np.array([[2.0, 3.0]]))
        assert med.converged
        assert med.residual_gradient_norm == 0.0
        np.testing.assert_array_equal(med.location, [2.0, 3.0])

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            spatial_median(np.empty((0, 3)))

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

    def test_converges_far_from_origin(self):
        # rounding at |X| = 1e4 once held the residual above the default tol
        for seed in range(5):
            X = np.random.default_rng(seed).standard_normal((20000, 5)) + 1e4
            med = spatial_median(X)
            assert med.converged, f"seed={seed}"
            assert med.residual_gradient_norm <= 1e-10
            assert np.abs(med.location - 1e4).max() < 0.05

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
        M = sample_sscm(X).matrix
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
        mat = est.signs.T @ est.signs / 6
        np.testing.assert_array_equal(est.matrix, 0.5 * (mat + mat.T))

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
