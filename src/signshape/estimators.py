"""Sign-based scatter estimation: spatial signs, the spatial median, and the
sample spatial sign covariance matrix (SSCM) plus its pairwise-difference
variant, the spatial Kendall's tau matrix.

All functions are pure and safe to call concurrently.  Both matrix
estimators reduce to one kernel, the spatial signs S of the rows of a
difference matrix, and sum s s^T over them as S^T S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpatialMedian",
    "SscmEstimate",
    "sample_kendall_tau",
    "sample_sscm",
    "spatial_median",
    "spatial_sign",
]


def _as_data_matrix(data) -> np.ndarray:
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"data must be a 2-d array of shape (n, p), got ndim={X.ndim}")
    n, p = X.shape
    if n < 1 or p < 1:
        raise ValueError(f"data must contain at least one observation and one variable, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("data must not contain NaN or infinite entries")
    return X


def spatial_sign(x) -> np.ndarray:
    """Spatial sign x/|x| of a vector, with the zero vector mapped to itself."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("input must be finite")
    scale = float(np.abs(v).max())
    if scale == 0.0:
        return np.zeros_like(v)
    # pre-scaling keeps the squared norm away from under/overflow
    w = v / scale
    return w / float(np.linalg.norm(w))


# entries up to half the largest double have finite differences
_HALF_MAX = np.finfo(float).max / 2


def _overflow_safe(*arrays: np.ndarray) -> tuple:
    """The arrays, halved together when a difference of their entries could overflow.

    Halving is exact above the subnormal range and leaves every spatial sign
    of a difference unchanged; ordinary inputs are returned as they are.
    """
    if max(float(np.abs(a).max()) for a in arrays) <= _HALF_MAX:
        return arrays
    return tuple(0.5 * a for a in arrays)


def _spatial_signs(diff: np.ndarray) -> np.ndarray:
    """Spatial signs of the rows of ``diff``, with zero rows mapped to zero.

    Rows whose squared norm leaves the normal double range are rescaled by
    their largest magnitude first, so signs survive extreme row scales.
    """
    sq = np.einsum("ij,ij->i", diff, diff)
    rescale = ~((sq >= np.finfo(float).tiny) & np.isfinite(sq))
    norms = np.sqrt(sq)
    norms[rescale] = np.inf  # those rows divide to zero here and are redone below
    signs = diff / norms[:, None]
    for i in np.flatnonzero(rescale):
        scale = np.abs(diff[i]).max()
        if scale > 0.0:
            w = diff[i] / scale
            signs[i] = w / np.sqrt(w @ w)
    return signs


@dataclass
class SpatialMedian:
    """Result of the spatial median iteration.

    ``residual_gradient_norm`` is the distance of zero from the
    subdifferential of mu -> sum_i |x_i - mu| at ``location``; it is at most
    the requested tolerance whenever ``converged`` is true.
    """

    location: np.ndarray
    converged: bool
    iterations: int
    residual_gradient_norm: float


def spatial_median(data, tol: float = 1e-10, max_iter: int = 1000) -> SpatialMedian:
    """Minimize the sum of Euclidean distances to the observations.

    Damped Weiszfeld iteration with the anchor-point correction: when the
    iterate coincides with data points, the step is shrunk by the multiplicity
    at the anchor and optimality is judged by the subgradient condition there.
    The data are centred once at their coordinate-wise median, where the
    iteration starts, so its updates round at the spread of the data rather
    than at their distance from the origin.  Centred data far from unit size
    are also scaled by a power of two to it, which is exact, so they converge
    as they would at scale one.  Every returned location undoes both.  On
    non-convergence the best iterate seen is returned with ``converged=False``.
    """
    X = _as_data_matrix(data)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    n, _ = X.shape
    origin = np.median(X, axis=0)
    with np.errstate(over="ignore"):
        centred = X - origin
    size = float(np.abs(centred).max())
    exponent = 0
    if not 2.0**-200 < size < 2.0**200:
        # squared distances could leave the double range: scale by a power of
        # two to unit size, exactly (the residual is scale-free), halving the
        # data first if the centring overflowed
        halved = int(size == np.inf)
        centred = np.ldexp(X, -halved) - np.ldexp(origin, -halved)
        scale = int(np.frexp(np.abs(centred).max())[1])
        centred = np.ldexp(centred, -scale)
        exponent = halved + scale
    X = centred
    mu = np.zeros_like(origin)
    best_mu, best_res = mu, np.inf
    iterations = 0
    for iterations in range(max_iter + 1):
        diff = X - mu
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        anchored = dist == 0.0
        n_anchor = int(np.count_nonzero(anchored))
        if n_anchor == n:
            return SpatialMedian(origin + np.ldexp(mu, exponent), True, iterations, 0.0)
        w = 1.0 / dist[~anchored]
        pull = w @ diff[~anchored]
        pull_norm = float(np.linalg.norm(pull))
        if not np.isfinite(pull_norm):
            break  # never read as a zero residual, as max(0.0, nan) would be
        residual = max(0.0, pull_norm - n_anchor)
        if residual < best_res:
            best_mu, best_res = mu, residual
        if residual <= tol:
            return SpatialMedian(origin + np.ldexp(mu, exponent), True, iterations, residual)
        if iterations == max_iter:
            break
        # step by a correction to mu: its rounding scales with the step, not
        # with |X| as a weighted mean of X would, so the residual can reach tol
        shift = pull / w.sum()
        if n_anchor and pull_norm > 0.0:
            shift *= 1.0 - min(1.0, n_anchor / pull_norm)
        target = mu + shift
        if np.array_equal(target, mu):
            break  # fixed point at float precision
        mu = target
    return SpatialMedian(origin + np.ldexp(best_mu, exponent), best_res <= tol, iterations, best_res)


@dataclass
class SscmEstimate:
    """A sample spatial sign covariance matrix with its provenance.

    ``kind`` is ``"sscm"`` or ``"kendall_tau"``.  The trace equals the
    fraction of terms with a nonzero spatial sign, hence is at most one.
    ``center`` is None for the Kendall variant; ``median`` records the
    centering iteration when it was run internally.

    ``signs`` is the n x p matrix S of the spatial signs of the centred rows
    of a sample SSCM, whose ``matrix`` is S^T S / n, symmetrized; it is None
    for Kendall's tau and for estimates built by hand.  When n < p the SSCM
    has rank at most n, and :func:`signshape.sscm_eigensystem` decomposes the
    n x n Gram matrix S S^T / n instead of ``matrix``.
    """

    matrix: np.ndarray
    kind: str
    n_used: int
    center: np.ndarray | None
    median: SpatialMedian | None = None
    signs: np.ndarray | None = None


def sample_sscm(
    data,
    center=None,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> SscmEstimate:
    """Sample SSCM: average outer product of the spatial signs of centered rows.

    Parameters
    ----------
    data : array_like of shape (n, p)
        Observations in rows; p > n is fine.
    center : array_like of shape (p,), optional
        Centering point.  When omitted the spatial median is computed with
        tolerance ``tol`` and at most ``max_iter`` iterations.

    Returns
    -------
    SscmEstimate
        Symmetric non-negative definite matrix with eigenvalues in [0, 1],
        together with the spatial signs it is built from.  Observations equal
        to the center contribute zero, so the trace can fall below one.
    """
    X = _as_data_matrix(data)
    n, p = X.shape
    median = None
    if center is None:
        median = spatial_median(X, tol=tol, max_iter=max_iter)
        mu = median.location
    else:
        mu = np.asarray(center, dtype=float)
        if mu.shape != (p,):
            raise ValueError(f"center must have shape ({p},), got {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("center must be finite")
    scaled_X, scaled_mu = _overflow_safe(X, mu)
    signs = _spatial_signs(scaled_X - scaled_mu)
    mat = signs.T @ signs / n
    mat = 0.5 * (mat + mat.T)
    return SscmEstimate(
        matrix=mat, kind="sscm", n_used=n, center=mu.copy(), median=median, signs=signs
    )


def sample_kendall_tau(data) -> SscmEstimate:
    """Spatial Kendall's tau matrix: the SSCM of all pairwise differences.

    Averages s(x_i - x_j) s(x_i - x_j)^T over the n(n-1)/2 unordered pairs in
    one serial O(n^2 p) loop over i; its only parallelism is that of BLAS.
    """
    X = _as_data_matrix(data)
    n, p = X.shape
    if n < 2:
        raise ValueError("the Kendall's tau matrix needs at least two observations")
    (X,) = _overflow_safe(X)
    total = np.zeros((p, p))
    for i in range(n - 1):
        signs = _spatial_signs(X[i + 1 :] - X[i])
        total += signs.T @ signs
    n_pairs = n * (n - 1) // 2
    mat = total / n_pairs
    mat = 0.5 * (mat + mat.T)
    return SscmEstimate(matrix=mat, kind="kendall_tau", n_used=n, center=None)
