import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signshape import (
    QuadratureConfig,
    QuadratureError,
    Spectrum,
    sign_fourth_moments,
    sign_moment_matrix,
    sscm_asymptotic_cov,
    sscm_eigenvalues,
)
from signshape import eigenmoments
from tests.conftest import random_spectrum


def two_dim_closed_form(lam):
    """For p = 2 the map has the closed form sqrt(lam_i) / sum_j sqrt(lam_j)."""
    roots = np.sqrt(np.asarray(lam, dtype=float))
    return roots / roots.sum()


positive_weights = st.lists(
    st.floats(min_value=1e-4, max_value=1.0), min_size=2, max_size=8
)


class TestSpectrum:
    def test_normalizes_to_unit_sum(self):
        s = Spectrum(np.array([3.0, 2.0, 1.0]))
        assert abs(s.values.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(s.values, [0.5, 1 / 3, 1 / 6], atol=1e-15)

    def test_power_of_two_scaling_is_exact(self):
        base = np.array([0.55, 0.3, 0.15])
        reference = Spectrum(base).values
        for c in (0.5, 2.0, 8.0, 2.0**-20, 2.0**13):
            np.testing.assert_array_equal(Spectrum(c * base).values, reference)

    def test_general_scaling_is_near_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = random_spectrum(rng, 5)
            c = rng.uniform(0.1, 10.0)
            np.testing.assert_allclose(
                Spectrum(c * base).values, Spectrum(base).values, rtol=1e-15, atol=0
            )

    @pytest.mark.parametrize(
        "bad",
        [
            [0.1, 0.9],  # ascending
            [0.5, -0.1],  # negative
            [np.nan, 0.5],  # non-finite
            [0.0, 0.0],  # zero sum
            [],  # empty
        ],
    )
    def test_rejects_invalid_vectors(self, bad):
        with pytest.raises(ValueError):
            Spectrum(np.asarray(bad, dtype=float))

    def test_overflowing_sum_is_rescaled(self):
        np.testing.assert_array_equal(Spectrum([1e308, 1e308]).values, [0.5, 0.5])
        np.testing.assert_array_equal(
            Spectrum([2.0**1023, 2.0**1022, 2.0**1022]).values, [0.5, 0.25, 0.25]
        )

    def test_asarray_view(self):
        s = Spectrum(np.array([0.6, 0.4]))
        np.testing.assert_array_equal(np.asarray(s), s.values)
        assert len(s) == s.p == 2


class TestSscmEigenvalues:
    @pytest.mark.parametrize("p", [2, 3, 5, 10, 50])
    def test_equal_spectrum_is_fixed_point(self, p):
        out = sscm_eigenvalues(np.full(p, 1.0 / p))
        np.testing.assert_allclose(out.values, 1.0 / p, rtol=0, atol=1e-15)

    def test_degenerate_spectrum_is_fixed(self):
        out = sscm_eigenvalues([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.values, [1.0, 0.0, 0.0])

    def test_two_dim_closed_form_spot(self):
        out = sscm_eigenvalues([0.9, 0.1])
        np.testing.assert_allclose(out.values, [0.75, 0.25], atol=1e-12)

    def test_two_dim_closed_form_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lam = random_spectrum(rng, 2)
            out = sscm_eigenvalues(lam)
            np.testing.assert_allclose(out.values, two_dim_closed_form(lam), atol=1e-10)

    def test_two_dim_closed_form_extreme_ratios(self):
        # eigenvalue ratios log-uniform down to 1e-300, each entry to 1e-12 relative
        rng = np.random.default_rng(11)
        for exponent in np.append(rng.uniform(-300.0, 0.0, 40), -300.0):
            lam = np.array([1.0, 10.0**exponent]) / (1.0 + 10.0**exponent)
            out = sscm_eigenvalues(lam)
            np.testing.assert_allclose(out.values, two_dim_closed_form(lam), rtol=1e-12, atol=0)

    def test_three_dim_pinned_value(self, oracle_pins):
        pin = oracle_pins["sscm_eigenvalues_p3_050_030_020"]
        out = sscm_eigenvalues(pin["lambda"])
        gap = np.abs(out.values - np.asarray(pin["estimate"]))
        assert np.all(gap < 4.0 * np.asarray(pin["se"]))

    def test_zeros_map_to_exact_zeros(self):
        out = sscm_eigenvalues([0.6, 0.4, 0.0, 0.0])
        assert out.values[2] == 0.0 and out.values[3] == 0.0

    def test_ties_map_to_exact_ties(self):
        out = sscm_eigenvalues([0.4, 0.2, 0.2, 0.2]).values
        assert out[1] == out[2] == out[3]

    def test_order_preserved(self):
        rng = np.random.default_rng(8)
        for p in (3, 6, 12):
            lam = random_spectrum(rng, p)
            out = sscm_eigenvalues(lam).values
            assert np.all(np.diff(out) < 0)

    def test_sum_is_one(self):
        rng = np.random.default_rng(9)
        for p in (2, 5, 30):
            out = sscm_eigenvalues(random_spectrum(rng, p)).values
            assert abs(out.sum() - 1.0) < 1e-12

    def test_simplex_preserved_in_bulk(self):
        # the library aborts if the pre-normalization unit-sum defect exceeds
        # 10 * rel_tol = 1e-9, so success here bounds the raw defect too
        rng = np.random.default_rng(10)
        for p in (2, 3, 5, 10, 50):
            for _ in range(1000):
                out = sscm_eigenvalues(random_spectrum(rng, p)).values
                assert abs(out.sum() - 1.0) < 1e-12
                assert np.all(out >= 0.0)
                assert np.all(np.diff(out) <= 0.0)

    @given(positive_weights)
    @settings(max_examples=40, deadline=None)
    def test_shrinks_eigenvalue_ratios(self, weights):
        lam = np.sort(np.asarray(weights))[::-1]
        lam = lam / lam.sum()
        out = sscm_eigenvalues(lam).values
        for i in range(len(lam) - 1):
            for j in range(i + 1, len(lam)):
                assert out[i] / out[j] <= lam[i] / lam[j] * (1.0 + 1e-10)

    def test_quadrature_failure_raises_with_residual(self):
        # successive steps cannot agree below the resolution of a double
        cfg = QuadratureConfig(rel_tol=1e-17)
        with pytest.raises(QuadratureError) as err:
            sscm_eigenvalues([0.99, 0.009, 0.001], cfg)
        assert err.value.residual > 0.0

    def test_accepts_spectrum_or_array(self):
        a = sscm_eigenvalues(Spectrum(np.array([0.7, 0.3])))
        b = sscm_eigenvalues([0.7, 0.3])
        np.testing.assert_array_equal(a.values, b.values)


class TestFourthMoments:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equal_spectrum_closed_form(self, p):
        # Beta-integral evaluation: off-diagonal 1/(p(p+2)), diagonal 3/(p(p+2))
        table = sign_fourth_moments(np.full(p, 1.0 / p))
        expected = np.full((p, p), 1.0 / (p * (p + 2)))
        np.fill_diagonal(expected, 3.0 / (p * (p + 2)))
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_degenerate_direction_carries_all_mass(self):
        np.testing.assert_array_equal(
            sign_fourth_moments([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]])
        )

    def test_single_dimension(self):
        np.testing.assert_array_equal(sign_fourth_moments([1.0]), np.array([[1.0]]))

    def test_pinned_two_dim_table(self, oracle_pins):
        pin = oracle_pins["fourth_moments_p2_090_010"]
        table = sign_fourth_moments(pin["lambda"])
        gap = np.abs(table - np.asarray(pin["estimate"]))
        assert np.all(gap < 4.0 * np.asarray(pin["se"]))

    def test_pinned_three_dim_table(self, oracle_pins):
        pin = oracle_pins["fourth_moments_p3_050_030_020"]
        table = sign_fourth_moments(pin["lambda"])
        gap = np.abs(table - np.asarray(pin["estimate"]))
        assert np.all(gap < 4.0 * np.asarray(pin["se"]))

    def test_row_sums_reproduce_eigenvalues(self):
        rng = np.random.default_rng(12)
        for p in (2, 4, 9):
            lam = random_spectrum(rng, p)
            table = sign_fourth_moments(lam)
            out = sscm_eigenvalues(lam).values
            np.testing.assert_allclose(table.sum(axis=1), out, atol=1e-9)

    def test_symmetry_and_zero_rows(self):
        table = sign_fourth_moments([0.5, 0.3, 0.2, 0.0])
        np.testing.assert_array_equal(table, table.T)
        np.testing.assert_array_equal(table[3], np.zeros(4))
        np.testing.assert_array_equal(table[:, 3], np.zeros(4))

    def test_exactly_symmetric_at_large_p(self):
        # the cross table comes from one GEMM, whose summation order is not symmetric
        table = sign_fourth_moments(random_spectrum(np.random.default_rng(20), 100))
        np.testing.assert_array_equal(table, table.T)

    def test_all_entries_non_negative(self):
        rng = np.random.default_rng(13)
        table = sign_fourth_moments(random_spectrum(rng, 6))
        assert np.all(table >= 0.0)


class TestMomentMatrix:
    def test_two_dim_equal_spectrum_matrix(self):
        got = sign_moment_matrix([0.5, 0.5])
        expected = np.array(
            [
                [3 / 8, 0.0, 0.0, 1 / 8],
                [0.0, 1 / 8, 1 / 8, 0.0],
                [0.0, 1 / 8, 1 / 8, 0.0],
                [1 / 8, 0.0, 0.0, 3 / 8],
            ]
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_structural_zero_count(self, p):
        rng = np.random.default_rng(14)
        mat = sign_moment_matrix(random_spectrum(rng, p))
        assert int(np.count_nonzero(mat == 0.0)) == p * (p**3 - 3 * p + 2)

    def test_degenerate_spectrum_single_entry(self):
        mat = sign_moment_matrix([1.0, 0.0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(mat, expected)

    def test_symmetric(self):
        rng = np.random.default_rng(15)
        mat = sign_moment_matrix(random_spectrum(rng, 4))
        np.testing.assert_array_equal(mat, mat.T)

    def test_entries_match_direct_monte_carlo(self):
        # estimate E[vec(s s^T) vec(s s^T)^T] directly from simulated signs
        lam = np.array([0.6, 0.3, 0.1])
        mat = sign_moment_matrix(lam)
        rng = np.random.default_rng(16)
        draws = 200_000
        y = rng.standard_normal((draws, 3)) * np.sqrt(lam)
        u = y / np.linalg.norm(y, axis=1, keepdims=True)
        outer = np.einsum("ni,nj->nij", u, u).reshape(draws, 9)
        mc = (outer.T @ outer) / draws
        se = np.sqrt(
            np.clip(((outer**2).T @ outer**2) / draws - mc**2, 0.0, None) / draws
        )
        assert np.all(np.abs(mat - mc) <= 4.0 * se + 1e-12)


class TestAsymptoticCov:
    def test_two_dim_identity_basis(self):
        cov = sscm_asymptotic_cov(np.eye(2), [0.5, 0.5])
        # variance of s_1^2 is 3/8 - 1/4 = 1/8; s_1^2 + s_2^2 = 1 forces the
        # perfect anti-correlation in the corners
        expected = np.array(
            [
                [1 / 8, 0.0, 0.0, -1 / 8],
                [0.0, 1 / 8, 1 / 8, 0.0],
                [0.0, 1 / 8, 1 / 8, 0.0],
                [-1 / 8, 0.0, 0.0, 1 / 8],
            ]
        )
        np.testing.assert_allclose(cov.w, expected, atol=1e-12)

    def test_trace_direction_has_zero_variance(self):
        rng = np.random.default_rng(17)
        for p in (2, 3, 5):
            lam = random_spectrum(rng, p)
            Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            cov = sscm_asymptotic_cov(Q, lam)
            vec_eye = np.eye(p).ravel()
            assert abs(vec_eye @ cov.w @ vec_eye) < 1e-10

    def test_non_negative_definite(self):
        rng = np.random.default_rng(18)
        lam = random_spectrum(rng, 4)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cov = sscm_asymptotic_cov(Q, lam)
        np.testing.assert_array_equal(cov.w, cov.w.T)
        assert np.linalg.eigvalsh(cov.w).min() > -1e-8

    def test_rejects_non_orthogonal_basis(self):
        with pytest.raises(ValueError):
            sscm_asymptotic_cov(np.array([[1.0, 0.1], [0.0, 1.0]]), [0.5, 0.5])

    def test_rejects_wrong_shape_basis(self):
        with pytest.raises(ValueError):
            sscm_asymptotic_cov(np.eye(3), [0.5, 0.5])

    @pytest.mark.parametrize(
        "p, lam",
        [
            (3, None),
            (6, None),
            (10, None),
            (6, [0.25, 0.25, 0.2, 0.2, 0.05, 0.05]),
            (5, [0.4, 0.3, 0.2, 0.1, 0.0]),
            (3, [1.0, 0.0, 0.0]),
        ],
        ids=["3", "6", "10", "tie", "zero", "single-axis"],
    )
    def test_rotation_conjugates_the_covariance(self, p, lam):
        rng = np.random.default_rng(19)
        if lam is None:
            lam = random_spectrum(rng, p)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        plain = sscm_asymptotic_cov(np.eye(p), lam)
        rotated = sscm_asymptotic_cov(Q, lam).w
        K = np.kron(Q, Q)
        np.testing.assert_allclose(rotated, K @ plain.w @ K.T, atol=1e-12)
        # the definition (O kron O)(gamma - vec(D) vec(D)^T)(O kron O)^T
        vec_d = np.diag(sscm_eigenvalues(lam).values).ravel()
        reference = K @ (plain.gamma - np.outer(vec_d, vec_d)) @ K.T
        np.testing.assert_allclose(rotated, reference, atol=1e-12)
        np.testing.assert_array_equal(rotated, rotated.T)
        # S_n is symmetric, so W is exactly invariant under i <-> j and k <-> l
        for w in (plain.w, rotated):
            w4 = w.reshape(p, p, p, p)
            np.testing.assert_array_equal(w4, w4.transpose(1, 0, 2, 3))
            np.testing.assert_array_equal(w4, w4.transpose(0, 1, 3, 2))

    def test_one_quadrature_per_call(self, monkeypatch):
        calls = []
        original = eigenmoments._moments

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(eigenmoments, "_moments", counting)
        sscm_asymptotic_cov(np.eye(4), [0.4, 0.3, 0.2, 0.1])
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "lam", [[0.4, 0.3, 0.2, 0.1], [0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.6, 0.4 - 1e-12, 1e-12]]
    )
    def test_carries_the_sscm_spectrum(self, lam):
        cov = sscm_asymptotic_cov(np.eye(len(lam)), lam)
        assert isinstance(cov.sscm_spectrum, Spectrum)
        np.testing.assert_allclose(
            cov.sscm_spectrum.values, sscm_eigenvalues(lam).values, rtol=0, atol=1e-15
        )
