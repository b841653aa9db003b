import dataclasses
import tracemalloc

import numpy as np
import pytest

from signshape import (
    ConvergenceError,
    EllipticalSampler,
    Spectrum,
    estimate_shape,
    sample_sscm,
    shape_eigenvalues,
    sscm_eigensystem,
    sscm_eigenvalues,
)
from signshape import inversion
from signshape.estimators import SscmEstimate
from tests.conftest import random_spectrum


class TestShapeEigenvalues:
    def test_equal_spectrum_is_fixed_point(self):
        for p in (2, 3, 7):
            res = shape_eigenvalues(np.full(p, 1.0 / p))
            assert res.converged
            np.testing.assert_allclose(res.spectrum.values, 1.0 / p, atol=1e-12)

    def test_two_dim_closed_form(self):
        # inverse of the p=2 closed form: lam_i proportional to delta_i^2
        res = shape_eigenvalues([0.75, 0.25])
        assert res.converged
        np.testing.assert_allclose(res.spectrum.values, [0.9, 0.1], atol=1e-9)

    def test_round_trip_random_spectra(self):
        rng = np.random.default_rng(41)
        spectra = [random_spectrum(rng, p) for p in (2, 3, 5, 10) for _ in range(5)]
        # eccentric draws: largest over smallest eigenvalue 3e21 to 2e56 at p = 30, 8e12 at p = 1000
        for seed in range(5):
            lam = np.random.default_rng(seed).dirichlet(np.full(30, 0.05))
            spectra.append(np.sort(lam[lam > 0.0])[::-1])
        spectra.append(np.sort(np.random.default_rng(7).dirichlet(np.full(1000, 0.2)))[::-1])
        for lam in spectra:
            lam = lam / lam.sum()
            res = shape_eigenvalues(sscm_eigenvalues(lam))
            assert res.converged
            assert np.abs(res.spectrum.values / lam - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("ratio", [1e-10, 1e-12, 1e-200, 1e-300, 1e-310, 1e-320, 5e-324])
    def test_round_trip_geometric_spectra(self, p, ratio):
        lam = ratio ** (np.arange(p) / (p - 1))
        lam /= lam.sum()
        res = shape_eigenvalues(sscm_eigenvalues(lam))
        assert res.converged
        assert np.abs(res.spectrum.values / lam - 1.0).max() <= 1e-8

    def test_near_boundary_target(self):
        target = np.array([1.0 - 1e-6, 1e-6])
        res = shape_eigenvalues(target)
        assert res.converged
        assert np.abs(sscm_eigenvalues(res.spectrum).values - target).max() <= 1e-9

    def test_support_preservation(self):
        forward = sscm_eigenvalues([0.6, 0.4, 0.0])
        res = shape_eigenvalues(forward)
        assert res.converged
        assert res.spectrum.values[2] == 0.0
        np.testing.assert_allclose(res.spectrum.values[:2], [0.6, 0.4], atol=1e-9)

    def test_degenerate_target(self):
        res = shape_eigenvalues([1.0, 0.0, 0.0])
        assert res.converged
        np.testing.assert_array_equal(res.spectrum.values, [1.0, 0.0, 0.0])

    def test_tied_targets_give_tied_results(self):
        forward = sscm_eigenvalues([0.4, 0.2, 0.2, 0.2])
        res = shape_eigenvalues(forward)
        assert res.converged
        out = res.spectrum.values
        assert out[1] == out[2] == out[3]
        assert out[0] > out[1]

    def test_monotone_targets_give_monotone_results(self):
        rng = np.random.default_rng(42)
        lam = random_spectrum(rng, 6)
        res = shape_eigenvalues(sscm_eigenvalues(lam))
        assert np.all(np.diff(res.spectrum.values) < 0)

    def test_residual_definition(self):
        rng = np.random.default_rng(43)
        target = sscm_eigenvalues(random_spectrum(rng, 4))
        res = shape_eigenvalues(target, tol=1e-9)
        back = sscm_eigenvalues(res.spectrum)
        observed = np.abs(back.values - target.values).max()
        assert observed <= max(2.0 * res.residual, 1e-9)

    def test_non_convergence_reports_best_iterate(self):
        target = sscm_eigenvalues([0.97, 0.02, 0.01])
        res = shape_eigenvalues(target, tol=1e-13, max_iter=1)
        assert not res.converged
        assert res.iterations == 1
        assert res.residual > 0.0
        assert isinstance(res.spectrum, Spectrum)

    def test_stop_converged(self):
        # a single distinct value is its own preimage
        res = shape_eigenvalues([0.25, 0.25, 0.25, 0.25])
        assert (res.stop, res.iterations, res.converged) == ("converged", 0, True)

    def test_stop_max_iter(self):
        res = shape_eigenvalues([0.6, 0.3, 0.1], max_iter=0)
        assert (res.stop, res.iterations, res.converged) == ("max_iter", 0, False)

    def test_stop_singular_jacobian(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        res = shape_eigenvalues([0.6, 0.3, 0.1])
        assert (res.stop, res.iterations, res.converged) == ("singular_jacobian", 1, False)

    def test_stop_no_descent(self, monkeypatch):
        original = inversion._moments
        first = []

        def stuck(*args, **kwargs):
            # every candidate reads the starting point's moments: no step lowers the residual
            if not first:
                first.append(original(*args, **kwargs))
            return first[0]

        monkeypatch.setattr(inversion, "_moments", stuck)
        res = shape_eigenvalues([0.6, 0.3, 0.1])
        assert (res.stop, res.iterations, res.converged) == ("no_descent", 1, False)
        assert res.relative_residual > 1e-9

    @pytest.mark.parametrize("lam", [[1.0, 1e-310, 1e-320], [1.0, 1e-320, 1e-320, 0.0]])
    def test_round_trip_several_subnormal_values(self, lam):
        lam = np.array(lam) / sum(lam)
        res = shape_eigenvalues(sscm_eigenvalues(lam))
        assert res.converged and res.stop == "converged"
        np.testing.assert_allclose(res.spectrum.values, lam, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("ratio", [1e-160, 1e-170, 1e-300])
    def test_preimage_beyond_the_double_range_stops_typed(self, ratio):
        # the preimage ratio is ratio^2: subnormal with a few bits, or below
        # the smallest double, so the iteration ends with a reason, not a raise
        res = shape_eigenvalues([1.0, ratio])
        assert not res.converged and res.stop == "no_descent"

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            shape_eigenvalues([0.6, 0.4], tol=0.0)

    def test_rejects_invalid_simplex_point(self):
        with pytest.raises(ValueError):
            shape_eigenvalues([0.5, -0.5])


class TestSscmEigensystem:
    def test_clamps_negative_roundoff_with_warning(self):
        mat = np.diag([0.8, 0.2 + 1e-13, -1e-13])
        with pytest.warns(RuntimeWarning):
            spectrum, _ = sscm_eigensystem(mat)
        assert spectrum.values[-1] == 0.0
        assert abs(spectrum.values.sum() - 1.0) < 1e-12

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            sscm_eigensystem(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            sscm_eigensystem(np.zeros((3, 3)))


class TestEstimateShape:
    def test_spherical_fixed_points(self):
        for p in (2, 5):
            est = SscmEstimate(matrix=np.eye(p) / p, kind="sscm", n_used=10, center=np.zeros(p))
            shape = estimate_shape(est)
            np.testing.assert_allclose(shape.matrix, np.eye(p) / p, atol=1e-10)
            assert shape.inversion.converged

    def test_eigenvector_passthrough_commutes(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((300, 4)) * np.array([2.0, 1.0, 0.5, 0.25])
        est = sample_sscm(X)
        shape = estimate_shape(est)
        comm = shape.matrix @ est.matrix - est.matrix @ shape.matrix
        assert np.abs(comm).max() < 1e-10
        assert abs(np.trace(shape.matrix) - 1.0) < 1e-12

    def test_gaussian_simulation_recovers_shape(self):
        # single large Gaussian sample; tolerance from a nonparametric bootstrap
        lam_true = np.array([0.9, 0.1])
        sampler = EllipticalSampler(shape_root=np.diag(np.sqrt(lam_true)), seed=52)
        n = 50_000
        X = sampler.sample(n)
        est = sample_sscm(X)
        shape = estimate_shape(est)
        recovered = np.sort(np.linalg.eigvalsh(shape.matrix))[::-1]

        rng = np.random.default_rng(53)
        boot = np.empty((40, 2))
        for b in range(40):
            idx = rng.integers(0, n, size=n)
            boot_est = sample_sscm(X[idx])
            boot_shape = estimate_shape(boot_est)
            boot[b] = np.sort(np.linalg.eigvalsh(boot_shape.matrix))[::-1]
        se = boot.std(axis=0, ddof=1)
        assert np.all(np.abs(recovered - lam_true) < 4.0 * se)

    @pytest.mark.parametrize("n, p", [(2, 4), (50, 200), (100, 1000)])
    def test_more_variables_than_observations(self, n, p):
        # median-centered signs sum to zero, so the SSCM has rank at most n - 1
        rng = np.random.default_rng(54)
        X = rng.standard_normal((n, p)) * np.linspace(2.0, 0.5, p)
        est = sample_sscm(X)
        shape = estimate_shape(est)
        assert shape.inversion.converged
        # the shape matrix shares the eigenvectors, so its rank is the support size
        rank = np.count_nonzero(shape.inversion.spectrum.values)
        assert rank <= n - 1
        assert abs(np.trace(shape.matrix) - 1.0) < 1e-12
        np.testing.assert_array_equal(shape.matrix, shape.matrix.T)
        # the Gram path keeps only the support's eigenvectors, orthonormal
        vecs = shape.eigenvectors
        assert vecs.shape == (p, rank)
        assert np.abs(vecs.T @ vecs - np.eye(rank)).max() < 1e-12

        # without its signs the same SSCM goes through the dense p x p eigh
        dense = estimate_shape(
            SscmEstimate(est.matrix, est.kind, est.n_used, est.center, est.median)
        )
        assert dense.eigenvectors.shape == (p, p)
        # same rank, decided at the same positions
        np.testing.assert_array_equal(
            shape.sscm_spectrum.values == 0.0, dense.sscm_spectrum.values == 0.0
        )
        np.testing.assert_allclose(
            shape.sscm_spectrum.values, dense.sscm_spectrum.values, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            shape.inversion.spectrum.values, dense.inversion.spectrum.values, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(shape.matrix, dense.matrix, rtol=0, atol=1e-12)

    def test_wide_estimate_never_decomposes_p_by_p(self, monkeypatch):
        n, p = 30, 120
        X = np.random.default_rng(55).standard_normal((n, p))
        est = sample_sscm(X)
        sizes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        shape = estimate_shape(est)
        assert sizes == [(n, n)]
        assert shape.matrix.shape == (p, p)

    @pytest.mark.parametrize("n, p", [(40, 120), (500, 6)])
    def test_matrix_is_reassembled_on_first_read(self, n, p):
        X = np.random.default_rng(56).standard_normal((n, p)) * np.linspace(2.0, 0.5, p)
        shape = estimate_shape(sample_sscm(X))
        assert "matrix" not in vars(shape)
        # at n >= p the SSCM is decomposed densely, so its matrix is read
        assert ("matrix" not in vars(shape.source)) == (n < p)
        lam = shape.inversion.spectrum.values[: np.count_nonzero(shape.sscm_spectrum.values)]
        root = shape.eigenvectors[:, : lam.size] * np.sqrt(lam)
        mat = shape.matrix
        np.testing.assert_array_equal(mat, root @ root.T)
        np.testing.assert_array_equal(mat, mat.T)
        assert shape.matrix is mat
        assert "matrix" not in {f.name for f in dataclasses.fields(shape)}

    def test_wide_estimate_holds_no_p_by_p_array(self):
        # each p x p matrix is 32 MB at p = 2000; signs and eigenvectors are 0.8 MB
        X = np.random.default_rng(57).standard_normal((50, 2000))
        tracemalloc.start()
        try:
            shape = estimate_shape(sample_sscm(X))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shape.inversion.converged
        assert peak < 8e6, peak

    def test_failure_carries_partial_result(self):
        est = SscmEstimate(
            matrix=np.diag([0.97, 0.02, 0.01]), kind="sscm", n_used=100, center=np.zeros(3)
        )
        with pytest.raises(ConvergenceError) as err:
            estimate_shape(est, tol=1e-14, max_iter=1)
        partial = err.value.result
        assert partial is not None
        assert partial.matrix.shape == (3, 3)
        assert not partial.inversion.converged
        assert partial.inversion.stop == "max_iter"
        assert "(stop: max_iter)" in str(err.value)
