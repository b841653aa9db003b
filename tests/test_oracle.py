import numpy as np
import pytest

from signshape import (
    EllipticalSampler,
    mc_sampling_distribution,
    mc_sign_fourth_moments,
    mc_sscm_eigenvalues,
    pin_fixtures,
    sample_kendall_tau,
    sample_spherical_direction,
    sscm_eigenvalues,
)
from tests.conftest import random_spectrum


class TestSphereSampler:
    def test_rows_have_unit_norm(self):
        draws = sample_spherical_direction(7, 5000, seed=1)
        np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)

    def test_mean_is_zero(self):
        n = 1_000_000
        draws = sample_spherical_direction(3, n, seed=2)
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(n))

    def test_second_moments_are_isotropic(self):
        n = 500_000
        p = 4
        draws = sample_spherical_direction(p, n, seed=3)
        second = draws.T @ draws / n
        # var(U_i^2) = 2(p-1)/(p^2(p+2)) gives the diagonal standard error
        se_diag = np.sqrt(2 * (p - 1) / (p**2 * (p + 2)) / n)
        assert np.all(np.abs(np.diag(second) - 1.0 / p) < 4 * se_diag)
        off = second - np.diag(np.diag(second))
        assert np.all(np.abs(off) < 4 * np.sqrt(1.0 / (p * (p + 2)) / n))

    def test_seeded_determinism(self):
        a = sample_spherical_direction(3, 100, seed=9)
        b = sample_spherical_direction(3, 100, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_spherical_direction(0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_spherical_direction(3, 0, seed=0)


class TestMcEigenvalues:
    def test_equal_spectrum(self):
        est, se = mc_sscm_eigenvalues(np.full(4, 0.25), draws=400_000, seed=10)
        assert np.all(np.abs(est - 0.25) < 4 * se)

    def test_degenerate_spectrum_exact(self):
        est, se = mc_sscm_eigenvalues([1.0, 0.0, 0.0], draws=10_000, seed=11)
        np.testing.assert_array_equal(est, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(se, [0.0, 0.0, 0.0])

    def test_two_dim_closed_form(self):
        est, se = mc_sscm_eigenvalues([0.9, 0.1], draws=2_000_000, seed=12)
        np.testing.assert_allclose(est, [0.75, 0.25], atol=4 * se.max())

    def test_estimates_sum_to_one(self):
        est, _ = mc_sscm_eigenvalues([0.5, 0.3, 0.2], draws=50_000, seed=13)
        assert abs(est.sum() - 1.0) < 1e-12

    def test_bit_identical_reruns(self):
        a = mc_sscm_eigenvalues([0.6, 0.4], draws=30_000, seed=14)
        b = mc_sscm_eigenvalues([0.6, 0.4], draws=30_000, seed=14)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_radial_law_invariance(self):
        # chi radial vs purely angular draws estimate the same quantity;
        # independent seeds make this a genuine two-sample comparison
        lam = [0.7, 0.2, 0.1]
        chi_est, chi_se = mc_sscm_eigenvalues(lam, draws=1_000_000, seed=15, radial="chi")
        ang_est, ang_se = mc_sscm_eigenvalues(lam, draws=1_000_000, seed=16, radial="constant")
        combined = np.sqrt(chi_se**2 + ang_se**2)
        assert np.all(np.abs(chi_est - ang_est) < 4 * combined)

    def test_rejects_too_few_draws(self):
        with pytest.raises(ValueError):
            mc_sscm_eigenvalues([0.5, 0.5], draws=10, seed=0)

    def test_rejects_unknown_radial(self):
        with pytest.raises(ValueError):
            mc_sscm_eigenvalues([0.5, 0.5], draws=10_000, seed=0, radial="weird")


class TestMcFourthMoments:
    def test_equal_spectrum_closed_form(self):
        p = 3
        table, se = mc_sign_fourth_moments(np.full(p, 1.0 / p), draws=500_000, seed=20)
        expected = np.full((p, p), 1.0 / (p * (p + 2)))
        np.fill_diagonal(expected, 3.0 / (p * (p + 2)))
        assert np.all(np.abs(table - expected) < 4 * se)

    def test_row_sums_match_eigenvalue_estimates(self):
        # the identity sum_j w_i w_j = w_i holds per draw, so with a shared
        # seed the row sums equal the eigenvalue estimator almost exactly
        lam = [0.5, 0.3, 0.2]
        table, _ = mc_sign_fourth_moments(lam, draws=200_000, seed=21)
        est, _ = mc_sscm_eigenvalues(lam, draws=200_000, seed=21)
        np.testing.assert_allclose(table.sum(axis=1), est, atol=1e-12)

    def test_degenerate_spectrum_exact(self):
        table, se = mc_sign_fourth_moments([1.0, 0.0], draws=10_000, seed=22)
        np.testing.assert_array_equal(table, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(se, np.zeros((2, 2)))


class TestEllipticalSampler:
    def test_rejects_bad_shape_root(self):
        with pytest.raises(ValueError):
            EllipticalSampler(shape_root=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            EllipticalSampler(shape_root=np.ones((2, 3)))
        with pytest.raises(ValueError):
            EllipticalSampler(shape_root=np.eye(2), radial="gamma")

    def test_location_shift(self):
        loc = np.array([5.0, -3.0])
        sampler = EllipticalSampler(shape_root=np.eye(2), location=loc, seed=30)
        draws = sampler.sample(200_000)
        assert np.all(np.abs(draws.mean(axis=0) - loc) < 0.02)

    def test_seeded_determinism(self):
        sampler = EllipticalSampler(shape_root=np.eye(3), seed=31)
        np.testing.assert_array_equal(sampler.sample(50), sampler.sample(50))

    def test_chi_radial_is_gaussian_covariance(self):
        A = np.array([[1.0, 0.0], [0.5, 0.5]])
        sampler = EllipticalSampler(shape_root=A, seed=32)
        draws = sampler.sample(400_000)
        cov = draws.T @ draws / draws.shape[0]
        np.testing.assert_allclose(cov, A @ A.T, atol=0.02)

    def test_constant_radial_rows_lie_on_the_ellipsoid(self):
        A = np.array([[2.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.3, -0.2, 0.7]])
        loc = np.array([1.0, -2.0, 3.0])
        sampler = EllipticalSampler(shape_root=A, radial="constant", location=loc, seed=34)
        draws = sampler.sample(1000)
        radii = np.linalg.norm(np.linalg.solve(A, (draws - loc).T), axis=0)
        np.testing.assert_allclose(radii, 1.0, rtol=0, atol=1e-12)

    def test_coupled_radial_is_symmetric_about_location(self):
        sampler = EllipticalSampler(shape_root=np.diag([2.0, 1.0]), radial="coupled", seed=33)
        draws = sampler.sample(400_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)


class TestSamplingDistribution:
    def test_spherical_mean_matches_identity(self):
        sampler = EllipticalSampler(shape_root=np.eye(3), seed=40)
        mean_sscm, emp_cov, vecs = mc_sampling_distribution(
            sampler, n=300, replicates=120, seed=41, return_replicates=True
        )
        se = vecs.std(axis=0, ddof=1).reshape(3, 3) / np.sqrt(len(vecs))
        assert np.all(np.abs(mean_sscm - np.eye(3) / 3.0) < 4 * se + 1e-12)
        assert emp_cov.shape == (9, 9)

    def test_shape_eigenvalues_drive_the_mean(self):
        lam = np.array([0.9, 0.1])
        sampler = EllipticalSampler(shape_root=np.diag(np.sqrt(lam)), seed=42)
        mean_sscm, _, vecs = mc_sampling_distribution(
            sampler, n=400, replicates=150, seed=43, return_replicates=True
        )
        eigvals = np.sort(np.linalg.eigvalsh(mean_sscm))[::-1]
        # eigenvalues of the mean vs the population map, up to replicate noise
        se = vecs.std(axis=0, ddof=1).max() / np.sqrt(len(vecs))
        target = sscm_eigenvalues(lam).values
        assert np.all(np.abs(eigvals - target) < 5 * se + 5e-3)

    def test_replicate_determinism(self):
        sampler = EllipticalSampler(shape_root=np.eye(2), seed=44)
        a = mc_sampling_distribution(sampler, n=50, replicates=20, seed=45)
        b = mc_sampling_distribution(sampler, n=50, replicates=20, seed=45)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_rejects_too_few_replicates(self):
        sampler = EllipticalSampler(shape_root=np.eye(2), seed=46)
        with pytest.raises(ValueError):
            mc_sampling_distribution(sampler, n=10, replicates=1, seed=0)


class TestKendallIdentity:
    def test_pairwise_differences_estimate_the_same_eigenvalues(self):
        # Kendall's tau of elliptical draws is consistent for the same
        # population value as the SSCM
        lam = np.array([0.6, 0.3, 0.1])
        target = sscm_eigenvalues(lam).values
        sampler = EllipticalSampler(shape_root=np.diag(np.sqrt(lam)), seed=50)
        reps = 40
        children = np.random.SeedSequence(51).spawn(reps)
        eigvals = np.empty((reps, 3))
        for r, child in enumerate(children):
            X = sampler.draw(500, np.random.default_rng(child))
            eigvals[r] = np.sort(np.linalg.eigvalsh(sample_kendall_tau(X).matrix))[::-1]
        mean = eigvals.mean(axis=0)
        se = eigvals.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(mean - target) < 4 * se + 2e-3)


class TestGeneralizedElliptical:
    def test_direction_dependent_radius_leaves_sscm_targets(self):
        # radial part coupled to the direction: spatial signs are unchanged,
        # so the SSCM keeps its elliptical-model eigenvalues
        lam = np.array([0.5, 0.3, 0.2])
        target = sscm_eigenvalues(lam).values
        sampler = EllipticalSampler(
            shape_root=np.diag(np.sqrt(lam)), radial="coupled", seed=60
        )
        mean_sscm, _, vecs = mc_sampling_distribution(
            sampler, n=500, replicates=120, seed=61, return_replicates=True
        )
        eigvals = np.sort(np.linalg.eigvalsh(mean_sscm))[::-1]
        se = vecs.std(axis=0, ddof=1).max() / np.sqrt(len(vecs))
        assert np.all(np.abs(eigvals - target) < 5 * se + 5e-3)


class TestPinFixtures:
    def test_structure_and_determinism(self):
        a = pin_fixtures(draws=2000)
        b = pin_fixtures(draws=2000)
        assert a == b
        for scenario in a["scenarios"].values():
            assert scenario["kind"] in ("sscm_eigenvalues", "fourth_moments")
            assert scenario["draws"] == 2000
            est = np.asarray(scenario["estimate"], dtype=float)
            se = np.asarray(scenario["se"], dtype=float)
            assert est.shape == se.shape
            assert np.all(se >= 0.0)

    def test_committed_fixture_agrees_with_quadrature(self, oracle_pins):
        for scenario in oracle_pins.values():
            if scenario["kind"] != "sscm_eigenvalues":
                continue
            quad = sscm_eigenvalues(scenario["lambda"]).values
            gap = np.abs(quad - np.asarray(scenario["estimate"]))
            assert np.all(gap < 4 * np.asarray(scenario["se"]))
