"""Inverse eigenvalue map: recover shape-matrix eigenvalues from SSCM eigenvalues.

The forward map is injective on the ordered simplex, so the inverse is a
damped Newton iteration on log delta(theta) = log d over theta = log v, the
distinct nonzero values with multiplicities m.  With C the cross table of the
same quadrature, J = d delta / d theta = diag(delta - 2 diag C) - C diag(m)
has right null vector 1 (scale invariance) and left null vector m (unit sum);
so diag(1/delta) J has m * delta on the left, and one regular bordered solve

    (diag(1/delta) J + (m * delta) 1^T) s = log d - log delta

gives the step up to a shift along 1, which renormalizing v exp(s) to
m^T v = 1 removes.  The stop is the relative residual max |delta / d - 1|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from signshape.eigenmoments import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    Spectrum,
    _as_spectrum,
    _grouped,
    _moments,
)
from signshape.estimators import SscmEstimate

__all__ = [
    "ConvergenceError",
    "InversionResult",
    "ShapeEstimate",
    "estimate_shape",
    "shape_eigenvalues",
    "sscm_eigensystem",
]


class ConvergenceError(RuntimeError):
    """Iteration failed to converge; ``result`` holds the best partial output."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


@dataclass
class InversionResult:
    """Recovered shape spectrum with iteration diagnostics.

    ``residual`` is the sup-norm of (forward map of ``spectrum``) minus the
    target and ``relative_residual`` the largest |forward / target - 1| over
    nonzero targets; both are at most the tolerance when ``converged`` is true.
    ``stop`` names why the iteration ended: ``"converged"``, ``"max_iter"``,
    ``"no_descent"`` (no step length lowered the residual) or
    ``"singular_jacobian"`` (the Newton system could not be solved).
    """

    spectrum: Spectrum
    iterations: int
    residual: float
    relative_residual: float
    converged: bool
    stop: str


def shape_eigenvalues(
    sscm_spectrum,
    tol: float = 1e-9,
    max_iter: int = 100,
    cfg: QuadratureConfig | None = None,
) -> InversionResult:
    """Invert the eigenvalue map: find shape eigenvalues mapping to the target.

    Zero target entries are fixed to zero structurally and equal targets
    yield exactly equal results (the reduced problem runs over distinct
    values only).  A step is halved until its candidate is strictly
    descending and lowers the relative residual.  On failure the best
    iterate found is returned with ``converged=False`` and the reason in ``stop``.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    dvals, mults, inv = _grouped(_as_spectrum(sscm_spectrum).values)
    k = dvals.size

    # delta ~ lam (1 - 2 lam + 2 |lam|^2) near the sphere, so start at lam ~ d exp(2 d)
    v = dvals * np.exp(2.0 * dvals)
    v /= mults @ v
    quad = _moments(v, mults, cfg, cross=True)
    rel = float(np.abs(quad.values / dvals - 1.0).max())
    iterations = 0
    # a single distinct value is its own preimage: no step can lower a rounding residual
    stop = "max_iter" if k > 1 else "no_descent"
    while k > 1 and rel > tol and iterations < max_iter:
        iterations += 1
        # d delta / d log v: null on the right by scale invariance, on the left by the unit sum
        jac = np.diag(quad.values - 2.0 * np.diag(quad.cross)) - quad.cross * mults
        bordered = jac / quad.values[:, None] + (mults * quad.values)[:, None]
        try:
            step = np.linalg.solve(bordered, np.log(dvals / quad.values))
        except np.linalg.LinAlgError:
            stop = "singular_jacobian"
            break
        alpha = 1.0
        while alpha >= 2.0**-40:
            candidate = v * np.exp(alpha * step)
            candidate /= mults @ candidate
            if np.all(np.diff(candidate, append=0.0) < 0.0):
                # the candidate's cross table is the next Jacobian if it is accepted
                cand = _moments(candidate, mults, cfg, cross=True)
                cand_rel = float(np.abs(cand.values / dvals - 1.0).max())
                if cand_rel < rel:
                    v, quad, rel = candidate, cand, cand_rel
                    break
            alpha *= 0.5
        else:
            stop = "no_descent"  # no step length lowers the residual
            break
    if rel <= tol:
        stop = "converged"
    resid = float(np.abs(quad.values - dvals).max())
    # zero targets read the exact zero past the last value
    return InversionResult(
        Spectrum(np.append(v, 0.0)[inv]), iterations, resid, rel, rel <= tol, stop
    )


def sscm_eigensystem(sscm) -> tuple[Spectrum, np.ndarray]:
    """Descending eigenvalues (clamped into the simplex) and eigenvectors of an SSCM.

    Accepts an :class:`SscmEstimate` or a square matrix, which is symmetrized.
    Eigenvalues within p * eps * (largest eigenvalue) of zero are set to
    exactly zero, which makes the rank decision at p > n explicit; larger
    negative eigenvalues are clipped to zero with a warning.  The spectrum is
    renormalized and has p entries.

    An estimate that carries its n x p spatial signs S with n < p is
    decomposed through its n x n Gram matrix G = S S^T / n, whose eigenvalues
    are the nonzero ones of S^T S / n, at O(n^2 p) instead of O(p^3).  The
    eigenvectors are then the p x r matrix V = S^T U e^(-1/2) / sqrt(n) over
    the r kept eigenpairs (e, U) of G: orthonormal columns that span the
    support, and the spectrum is padded with zeros.  Otherwise they are the
    p x p orthogonal matrix of the dense decomposition.
    """
    signs = sscm.signs if isinstance(sscm, SscmEstimate) else None
    gram = signs is not None and signs.shape[0] < signs.shape[1]
    if gram:
        n, p = signs.shape
        eigvals, vecs = np.linalg.eigh(signs @ signs.T / n)
    else:
        mat = np.asarray(sscm.matrix if isinstance(sscm, SscmEstimate) else sscm, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix must be finite")
        asym = np.abs(mat - mat.T).max()
        if asym > 1e-8:
            raise ValueError(f"matrix must be symmetric (asymmetry {asym:.3e})")
        p = mat.shape[0]
        eigvals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    eigvals = eigvals[::-1].copy()
    vecs = vecs[:, ::-1]
    # numpy's matrix_rank tolerance: anything this small is roundoff, not rank
    eigvals[np.abs(eigvals) <= p * np.finfo(float).eps * eigvals[0]] = 0.0
    if np.any(eigvals < 0.0):
        n_neg = int(np.count_nonzero(eigvals < 0.0))
        warnings.warn(
            f"clamping {n_neg} negative eigenvalue(s) of the SSCM to zero "
            f"(most negative {eigvals.min():.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
        eigvals = np.clip(eigvals, 0.0, None)
    if not eigvals.sum() > 0.0:
        raise ValueError("matrix has no positive eigenvalues")
    if gram:
        kept = eigvals[eigvals > 0.0]
        vecs = signs.T @ (vecs[:, : kept.size] / np.sqrt(n * kept))
        eigvals = np.concatenate([kept, np.zeros(p - kept.size)])
    return Spectrum(eigvals), vecs


@dataclass
class ShapeEstimate:
    """Trace-normalized shape matrix reconstructed from a sample SSCM.

    ``sscm_spectrum`` and ``eigenvectors`` are the eigensystem of
    ``source.matrix``, which the shape matrix shares; ``inversion`` records
    the eigenvalue recovery.  ``eigenvectors`` is p x p and orthogonal, except
    for an estimate with n < p that carries its spatial signs: then it is
    p x r, and its orthonormal columns span the support, one for each of the
    r nonzero entries of ``sscm_spectrum``.

    ``matrix`` is R R^T with R = V sqrt(lambda) over those r eigenpairs.  It
    is formed on first read and kept, so an estimate that is only read
    through its eigensystem costs O(p r) memory; it is not a dataclass field.
    """

    source: SscmEstimate
    inversion: InversionResult
    sscm_spectrum: Spectrum
    eigenvectors: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        # zero SSCM eigenvalues map to zero shape eigenvalues
        lam = self.inversion.spectrum.values[: np.count_nonzero(self.sscm_spectrum.values)]
        # numpy forms R R^T as a symmetric rank-k update: exactly symmetric, half the flops
        root = self.eigenvectors[:, : lam.size] * np.sqrt(lam)
        return root @ root.T


def estimate_shape(
    sscm: SscmEstimate,
    tol: float = 1e-9,
    max_iter: int = 100,
    cfg: QuadratureConfig | None = None,
) -> ShapeEstimate:
    """Consistent shape-matrix estimate built solely from a sample SSCM.

    Eigendecomposes the SSCM (through the n x n Gram matrix of its spatial
    signs when n < p, see :func:`sscm_eigensystem`), inverts the eigenvalue
    map, and keeps the eigenvectors of the r nonzero eigenvalues; the p x p
    shape matrix is reassembled from them, at O(p^2 r), only when ``matrix``
    is read.  At p > n the call then holds no p x p array: at (n, p) =
    (200, 5000), with :func:`signshape.sample_sscm`, it peaks at about 24 MB.
    If the inversion does not converge a :class:`ConvergenceError` is raised
    carrying the partial estimate.
    """
    spectrum, eigvecs = sscm_eigensystem(sscm)
    inversion = shape_eigenvalues(spectrum, tol=tol, max_iter=max_iter, cfg=cfg)
    result = ShapeEstimate(sscm, inversion, spectrum, eigvecs)
    if not inversion.converged:
        raise ConvergenceError(
            f"eigenvalue inversion stalled at relative residual {inversion.relative_residual:.3e} "
            f"(absolute {inversion.residual:.3e}) after {inversion.iterations} iterations "
            f"(stop: {inversion.stop})",
            result=result,
        )
    return result
