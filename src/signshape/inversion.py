"""Inverse eigenvalue map: recover shape-matrix eigenvalues from SSCM eigenvalues.

The forward map is injective on the ordered simplex, so the inverse is
computed by a damped Newton iteration over the distinct nonzero values, with
the smallest value eliminated through the unit-sum constraint.  The Jacobian
comes from differentiating the moment integrals: writing d for the forward
map and q for the fourth-moment table,

    d d_i / d lam_j = -q_ij / lam_j          (i != j)
    d d_i / d lam_i = (d_i - q_ii) / lam_i

and one quadrature gives both d and q on shared nodes, so every evaluated
candidate carries the Jacobian for the next step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    target; it is at most the requested tolerance when ``converged`` is true.
    """

    spectrum: Spectrum
    iterations: int
    residual: float
    converged: bool


def shape_eigenvalues(
    sscm_spectrum,
    tol: float = 1e-9,
    max_iter: int = 100,
    cfg: QuadratureConfig | None = None,
) -> InversionResult:
    """Invert the eigenvalue map: find shape eigenvalues mapping to the target.

    Zero target entries are fixed to zero structurally and equal targets
    yield exactly equal results (the reduced problem runs over distinct
    values only).  Iterates are kept inside the ordered simplex by step
    halving and re-sorting.  On failure the best iterate found is returned
    with ``converged=False``.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    target = _as_spectrum(sscm_spectrum)
    tvals = target.values
    p = tvals.size
    support = tvals > 0.0
    dvals, mults, inv_nz = _grouped(tvals[support])
    k = dvals.size

    v = dvals.copy()
    quad = _moments(v, mults, cfg, cross=True)
    resid = float(np.abs(quad.values - dvals).max())
    iterations = 0
    # a single distinct value is its own preimage
    while k > 1 and resid > tol and iterations < max_iter:
        iterations += 1
        cross_diag = np.diag(quad.cross)
        grad = -(quad.cross * (mults[None, :] / v[None, :]))
        grad[np.diag_indices(k)] = (quad.values - 3.0 * cross_diag - (mults - 1.0) * cross_diag) / v
        # eliminate the last value via the unit-sum constraint
        jac = grad[:-1, :-1] - np.outer(grad[:-1, -1], mults[:-1] / mults[-1])
        try:
            step = np.linalg.solve(jac, -(quad.values - dvals)[:-1])
        except np.linalg.LinAlgError:
            break
        accepted = False
        alpha = 1.0
        while alpha >= 2.0**-40:
            head = v[:-1] + alpha * step
            tail = (1.0 - mults[:-1] @ head) / mults[-1]
            candidate = np.append(head, tail)
            if np.all(candidate > 0.0):
                candidate = np.sort(candidate)[::-1]
                # the candidate's cross table is the next Jacobian if it is accepted
                cand = _moments(candidate, mults, cfg, cross=True)
                cand_resid = float(np.abs(cand.values - dvals).max())
                if cand_resid < resid:
                    v, quad, resid = candidate, cand, cand_resid
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            break
    lam = np.zeros(p)
    lam[support] = v[inv_nz]
    return InversionResult(Spectrum(lam), iterations, resid, resid <= tol)


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
    """

    matrix: np.ndarray
    source: SscmEstimate
    inversion: InversionResult
    sscm_spectrum: Spectrum
    eigenvectors: np.ndarray


def estimate_shape(
    sscm: SscmEstimate,
    tol: float = 1e-9,
    max_iter: int = 100,
    cfg: QuadratureConfig | None = None,
) -> ShapeEstimate:
    """Consistent shape-matrix estimate built solely from a sample SSCM.

    Eigendecomposes the SSCM (through the n x n Gram matrix of its spatial
    signs when n < p, see :func:`sscm_eigensystem`), inverts the eigenvalue
    map, and reassembles with the eigenvectors of the r nonzero eigenvalues
    at O(p^2 r).  If the inversion does not converge a
    :class:`ConvergenceError` is raised carrying the partial estimate.
    """
    spectrum, eigvecs = sscm_eigensystem(sscm)
    inversion = shape_eigenvalues(spectrum, tol=tol, max_iter=max_iter, cfg=cfg)
    # zero SSCM eigenvalues map to zero shape eigenvalues
    lam = inversion.spectrum.values[: np.count_nonzero(spectrum.values)]
    # numpy forms R R^T as a symmetric rank-k update: exactly symmetric, half the flops
    root = eigvecs[:, : lam.size] * np.sqrt(lam)
    shape = root @ root.T
    result = ShapeEstimate(shape, sscm, inversion, spectrum, eigvecs)
    if not inversion.converged:
        raise ConvergenceError(
            f"eigenvalue inversion stalled at residual {inversion.residual:.3e} "
            f"after {inversion.iterations} iterations",
            result=result,
        )
    return result
