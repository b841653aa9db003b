import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signshape import (
    QuadratureConfig,
    QuadratureError,
    Spectrum,
    shape_eigenvalues,
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
        # eigenvalue ratios log-uniform down to 1e-300, then subnormal ones down
        # to the smallest double, each entry to 1e-12 relative
        rng = np.random.default_rng(11)
        exponents = np.append(rng.uniform(-300.0, 0.0, 40), -300.0)
        for ratio in np.append(10.0**exponents, [1e-310, 1e-320, 5e-324]):
            lam = np.array([1.0, ratio]) / (1.0 + ratio)
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

    def test_unit_sum_defect_raises_with_residual(self, monkeypatch):
        # node sums one part in 10^6 high leave the level gaps as they were, so the
        # step converges, but the eigenvalue integrals then sum to 1 + 1e-6
        node_sums = eigenmoments._node_sums

        def inflated(*args, **kwargs):
            return node_sums(*args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr(eigenmoments, "_node_sums", inflated)
        with pytest.raises(QuadratureError, match="sum to") as err:
            sscm_eigenvalues([0.6, 0.3, 0.1])
        assert err.value.residual == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("ratio", [1.0, 0.5, 1e-2, 1e-12, 1e-100, 1e-300])
    def test_error_estimate_bounds_the_two_dim_error(self, ratio, rel_tol):
        lam = np.array([1.0, ratio]) / (1.0 + ratio)
        cfg = QuadratureConfig(rel_tol=rel_tol)
        out, quad = sscm_eigenvalues(lam, cfg), eigenmoments._per_entry(lam, cfg)
        error = np.max(np.abs(out.values / two_dim_closed_form(lam) - 1.0))
        assert error <= quad.error_estimate <= rel_tol

    def test_accepts_spectrum_or_array(self):
        a = sscm_eigenvalues(Spectrum(np.array([0.7, 0.3])))
        b = sscm_eigenvalues([0.7, 0.3])
        np.testing.assert_array_equal(a.values, b.values)


def plain_trapezoid(lam, h=1.0 / 16.0):
    """Eigenvalues and fourth-moment table by the unwarped trapezoid rule in u = log x.

    Nodes every h from u = -45 to 50 past -log(lam_min), far beyond where
    either family has mass left; every entry is formed in log space.
    """
    lam = np.asarray(lam, dtype=float)
    lam = lam / lam.sum()
    pos = lam > 0.0
    log_v = np.log(lam[pos])
    u = np.arange(-45.0, 50.0 - log_v.min(), h)
    log1p_vx = np.logaddexp(0.0, u[:, None] + log_v)  # log(1 + v e^u)
    w = np.exp(-0.5 * log1p_vx.sum(axis=1))
    g = np.exp(u[:, None] + log_v - log1p_vx)  # v e^u / (1 + v e^u)
    delta = np.zeros(lam.size)
    table = np.zeros((lam.size, lam.size))
    delta[pos] = 0.5 * h * (g * w[:, None]).sum(axis=0)
    table[np.ix_(pos, pos)] = 0.25 * h * np.einsum("na,nb,n->ab", g, g, w)
    table[np.diag_indices_from(table)] *= 3.0
    return delta, table


class TestWarpedQuadrature:
    @pytest.mark.parametrize(
        "lam",
        [
            [0.9, 0.1],
            [1.0, 1e-12],
            [1.0, 1e-300],
            [0.5, 0.3, 0.2],
            1e-12 ** (np.arange(3) / 2),
            [0.4, 0.2, 0.2, 0.2],
            [0.5, 0.3, 0.2, 0.0],
            random_spectrum(np.random.default_rng(30), 10),
            1e-6 ** (np.arange(10) / 9),
            random_spectrum(np.random.default_rng(31), 100),
            np.geomspace(1.0, 0.9, 4),
        ],
        ids=[
            "p2", "p2-1e-12", "p2-1e-300", "p3", "p3-1e-12", "tie", "zero", "p10", "p10-1e-6",
            "p100", "p4-near-ties",
        ],
    )
    def test_matches_a_plain_trapezoid(self, lam):
        delta, table = plain_trapezoid(lam)
        out = sscm_eigenvalues(lam).values
        np.testing.assert_allclose(out, delta, rtol=1e-13, atol=0)
        # the step is chosen on the eigenvalue integrals, each relative to itself,
        # and the table is read off the same nodes
        scale = np.where(delta > 0.0, delta, 1.0)[:, None]
        assert np.all(np.abs(sign_fourth_moments(lam) - table) <= 1e-13 * scale)
        # at a loose tolerance too, where near ties stop a halving before the
        # table's own gaps would have met it
        loose = QuadratureConfig(rel_tol=1e-6)
        assert np.all(np.abs(sign_fourth_moments(lam, loose) - table) <= 1e-6 * scale)

    def test_one_formula_for_the_eigenvalue_integrals(self):
        # the table's quadrature sums the eigenvalue integrals as the map does, bit for bit
        rng = np.random.default_rng(40)
        for p in (2, 3, 4, 6, 8, 12, 16, 20, 25, 30) * 2:
            lam = random_spectrum(rng, p)
            np.testing.assert_array_equal(
                eigenmoments._per_entry(lam, None, cross=True).values,
                eigenmoments._per_entry(lam, None).values,
            )
            Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            np.testing.assert_array_equal(
                sscm_asymptotic_cov(Q, lam).sscm_spectrum.values, sscm_eigenvalues(lam).values
            )

    def test_node_count_at_large_p(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            lam = np.sort(rng.dirichlet(np.ones(10_000)))[::-1]
            quad = eigenmoments._per_entry(lam, None)
            # the gaps square at each halving, so h = 1/4 already meets the tolerance
            assert quad.step == 0.25
            assert quad.nodes <= 60

    def test_node_count_at_high_eccentricity(self):
        quad = eigenmoments._per_entry(1e-12 ** (np.arange(3) / 2), None)
        assert quad.nodes <= 350


class TestFourthMoments:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equal_spectrum_closed_form(self, p):
        # Beta-integral evaluation: off-diagonal 1/(p(p+2)), diagonal 3/(p(p+2))
        table = sign_fourth_moments(np.full(p, 1.0 / p))
        expected = np.full((p, p), 1.0 / (p * (p + 2)))
        np.fill_diagonal(expected, 3.0 / (p * (p + 2)))
        np.testing.assert_allclose(table, expected, atol=1e-12)

    @pytest.mark.parametrize("zeros", [0, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equal_support_takes_the_exact_table(self, m, zeros):
        # the sign is uniform on the sphere of the support: E[s_a^2 s_b^2] = 1/(m(m+2)), a != b
        lam = np.r_[np.full(m, 1.0 / m), np.zeros(zeros)]
        cross = np.zeros((m + zeros, m + zeros))
        cross[:m, :m] = 1.0 / (m * (m + 2))
        expected = cross.copy()
        expected[np.arange(m), np.arange(m)] = 3.0 / (m * (m + 2))
        np.testing.assert_array_equal(sign_fourth_moments(lam), expected)
        np.testing.assert_array_equal(sign_moment_matrix(lam), eigenmoments._gamma(cross))

    def test_peak_memory_is_about_the_table(self):
        # the table is formed once from the kept node rows, which are a tenth of it
        # here, with no per-level table or gap arrays
        lam = random_spectrum(np.random.default_rng(42), 1000)
        tracemalloc.start()
        try:
            table = sign_fourth_moments(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table.nbytes, peak / table.nbytes

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
        # the cross table is a sum of symmetric rank-k updates, symmetric by construction
        table = sign_fourth_moments(random_spectrum(np.random.default_rng(20), 100))
        np.testing.assert_array_equal(table, table.T)

    def test_several_node_blocks(self, monkeypatch):
        # at p = 1000 a block holds 65 nodes, and this spectrum scans past the first
        lam = np.sort(np.random.default_rng(33).dirichlet(np.full(1000, 0.05)))[::-1]
        table = sign_fourth_moments(lam)
        np.testing.assert_array_equal(table, table.T)
        delta = sscm_eigenvalues(lam).values
        np.testing.assert_allclose(table.sum(axis=1), delta, rtol=1e-12, atol=0)
        blocked = eigenmoments._per_entry(lam, None, cross=True)
        monkeypatch.setattr(eigenmoments, "_BLOCK", 1 << 40)
        whole = eigenmoments._per_entry(lam, None, cross=True)
        np.testing.assert_allclose(whole.values, blocked.values, rtol=1e-15, atol=0)
        assert np.all(np.abs(whole.cross - blocked.cross) <= 1e-15 * blocked.values[:, None])
        assert whole.step == blocked.step
        # one block evaluates the whole scan
        assert whole.nodes >= blocked.nodes

    def test_all_entries_non_negative(self):
        rng = np.random.default_rng(13)
        table = sign_fourth_moments(random_spectrum(rng, 6))
        assert np.all(table >= 0.0)


class TestPerEntry:
    @pytest.mark.parametrize(
        "lam",
        [[0.3, 0.3, 0.2, 0.2, 0.0], np.r_[np.full(8, 0.1), np.full(7, 0.02), np.zeros(5)]],
        ids=["5-tie-zero", "20-tie-zero"],
    )
    def test_reads_the_distinct_quadrature_out_per_entry(self, lam):
        values = Spectrum(lam).values
        distinct = np.unique(values[values > 0.0])[::-1].copy()
        reps = np.array([np.count_nonzero(values == d) for d in distinct])
        zeros = np.count_nonzero(values == 0.0)
        quad = eigenmoments._moments(
            distinct, reps.astype(float), eigenmoments.DEFAULT_QUADRATURE, cross=True
        )
        got = eigenmoments._per_entry(lam, None, cross=True)
        delta = np.r_[np.repeat(quad.values, reps), np.zeros(zeros)]
        np.testing.assert_array_equal(got.values, delta)
        block = np.repeat(np.repeat(quad.cross, reps, axis=0), reps, axis=1)
        np.testing.assert_array_equal(got.cross, np.pad(block, (0, zeros)))
        assert got[2:] == quad[2:]
        # the inverse reads its zeros and ties out of the same grouping
        target = sscm_eigenvalues(lam).values
        inv = shape_eigenvalues(target)
        assert inv.converged
        assert np.all(inv.spectrum.values[target == 0.0] == 0.0)
        for d in np.unique(target):
            tied = inv.spectrum.values[target == d]
            assert np.all(tied == tied[0])


class TestGrouped:
    @given(
        st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_distinct_positive_fast_path_matches_unique(self, entries):
        values = np.sort(np.array(entries))[::-1].copy()
        vals, counts, inv = eigenmoments._grouped(values)
        # a trailing zero sends the same values through np.unique
        ref_vals, ref_counts, ref_inv = eigenmoments._grouped(np.append(values, 0.0))
        assert ref_inv[-1] == values.size
        for got, ref in ((vals, ref_vals), (counts, ref_counts), (inv, ref_inv[:-1])):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_ties_and_zeros_take_unique(self):
        vals, counts, inv = eigenmoments._grouped(np.array([0.3, 0.3, 0.2, 0.1, 0.1, 0.0]))
        np.testing.assert_array_equal(vals, [0.3, 0.2, 0.1])
        np.testing.assert_array_equal(counts, [2.0, 1.0, 2.0])
        np.testing.assert_array_equal(inv, [0, 0, 1, 2, 2, 3])


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

    @pytest.mark.parametrize(
        "lam",
        [
            [1.0],
            [0.7, 0.3],
            [0.5, 0.5],
            [1.0, 0.0],
            random_spectrum(np.random.default_rng(33), 5),
            [0.3, 0.3, 0.2, 0.2, 0.0],
            random_spectrum(np.random.default_rng(34), 20),
            np.r_[np.full(8, 0.1), np.full(7, 0.02), np.zeros(5)],
        ],
        ids=["1", "2", "2-tie", "2-zero", "5", "5-tie-zero", "20", "20-tie-zero"],
    )
    def test_scatter_equals_the_pairing_sums(self, lam):
        # gamma is scattered from the cross table; with basis I the pairing sums give it too
        cross = eigenmoments._per_entry(lam, None, cross=True).cross
        p = cross.shape[0]
        reference = eigenmoments._pairings(np.eye(p), cross, cross)
        np.testing.assert_array_equal(sign_moment_matrix(lam), reference)
        cov = sscm_asymptotic_cov(np.eye(p), lam)
        assert "gamma" not in vars(cov)
        np.testing.assert_array_equal(cov.cross, cross)
        np.testing.assert_array_equal(cov.gamma, reference)
        np.testing.assert_array_equal(cov.gamma, sign_moment_matrix(lam))

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
            (1, None),
            (3, None),
            (6, None),
            (10, None),
            (20, None),
            (6, [0.25, 0.25, 0.2, 0.2, 0.05, 0.05]),
            (5, [0.4, 0.3, 0.2, 0.1, 0.0]),
            (3, [1.0, 0.0, 0.0]),
        ],
        ids=["1", "3", "6", "10", "20", "tie", "zero", "single-axis"],
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
        # S_n is symmetric, so W and gamma are exactly invariant under i <-> j and k <-> l
        for w in (plain.w, rotated, plain.gamma):
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
        np.testing.assert_array_equal(cov.sscm_spectrum.values, sscm_eigenvalues(lam).values)

    def test_gamma_is_formed_on_first_read(self):
        rng = np.random.default_rng(20)
        lam = random_spectrum(rng, 5)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        cov = sscm_asymptotic_cov(Q, lam)
        assert "gamma" not in {f.name for f in dataclasses.fields(cov)}
        assert "gamma" not in vars(cov)
        gamma = cov.gamma
        # gamma lives in the eigenbasis, whatever the basis of W
        np.testing.assert_array_equal(gamma, sign_moment_matrix(lam))
        assert cov.gamma is gamma
        np.testing.assert_array_equal(
            cov.cross * (1.0 + 2.0 * np.eye(5)), sign_fourth_moments(lam)
        )

    def test_holds_only_w(self):
        # W is 20 MB at p = 40; gamma was a second p^4 array, and the pair
        # gathers passed through arrays of half and a quarter of W
        p = 40
        rng = np.random.default_rng(21)
        lam = random_spectrum(rng, p)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        tracemalloc.start()
        try:
            cov = sscm_asymptotic_cov(Q, lam)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 1.05 * cov.w.nbytes, held / cov.w.nbytes
        assert peak <= 1.45 * cov.w.nbytes, peak / cov.w.nbytes
