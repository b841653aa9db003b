"""Sign-based scatter estimation: spatial signs, the spatial median, and the
sample spatial sign covariance matrix (SSCM) plus its pairwise-difference
variant, the spatial Kendall's tau matrix.

All functions are pure and safe to call concurrently.  The pairwise loop in
:func:`sample_kendall_tau` may run on several threads (capped by the
``SIGNSHAPE_THREADS`` environment variable); chunk boundaries and the
reduction order are fixed, so the result never depends on scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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


def thread_cap() -> int:
    """Maximum number of worker threads, from ``SIGNSHAPE_THREADS``.

    Defaults to the CPU count when the variable is unset.  Values below one
    are clamped to one; a non-integer value is an input error.
    """
    raw = os.environ.get("SIGNSHAPE_THREADS")
    if raw is None or raw == "":
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"SIGNSHAPE_THREADS must be an integer, got {raw!r}") from None
    return max(1, cap)


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


def _normalize_rows(diff: np.ndarray):
    """Unit-normalize nonzero rows in place of the spatial sign; zero rows stay zero.

    Rows whose squared norm leaves the normal double range are rescaled by
    their largest magnitude first, so signs survive extreme row scales.
    """
    sq = np.einsum("ij,ij->i", diff, diff)
    good = (sq >= np.finfo(float).tiny) & np.isfinite(sq)
    out = np.zeros_like(diff)
    out[good] = diff[good] / np.sqrt(sq[good])[:, None]
    count = int(np.count_nonzero(good))
    for i in np.flatnonzero(~good):
        scale = np.abs(diff[i]).max()
        if scale > 0.0:
            w = diff[i] / scale
            out[i] = w / np.sqrt(w @ w)
            count += 1
    return out, count


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
    Initialized at the coordinate-wise median.  On non-convergence the best
    iterate seen is returned with ``converged=False``.
    """
    X = _as_data_matrix(data)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    n, _ = X.shape
    mu = np.median(X, axis=0)
    best_mu, best_res = mu, np.inf
    iterations = 0
    for iterations in range(max_iter + 1):
        diff = X - mu
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        anchored = dist == 0.0
        n_anchor = int(np.count_nonzero(anchored))
        if n_anchor == n:
            return SpatialMedian(mu, True, iterations, 0.0)
        w = 1.0 / dist[~anchored]
        pull = w @ diff[~anchored]
        pull_norm = float(np.linalg.norm(pull))
        residual = max(0.0, pull_norm - n_anchor)
        if residual < best_res:
            best_mu, best_res = mu, residual
        if residual <= tol:
            return SpatialMedian(mu, True, iterations, residual)
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
    return SpatialMedian(best_mu, best_res <= tol, iterations, best_res)


@dataclass
class SscmEstimate:
    """A sample spatial sign covariance matrix with its provenance.

    ``kind`` is ``"sscm"`` or ``"kendall_tau"``.  The trace equals the
    fraction of terms with a nonzero spatial sign, hence is at most one.
    ``center`` is None for the Kendall variant; ``median`` records the
    centering iteration when it was run internally.
    """

    matrix: np.ndarray
    kind: str
    n_used: int
    center: np.ndarray | None
    median: SpatialMedian | None = None


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
        Symmetric non-negative definite matrix with eigenvalues in [0, 1].
        Observations equal to the center contribute zero, so the trace can
        fall below one.
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
    signs, _ = _normalize_rows(X - mu)
    mat = (signs.T @ signs) / n
    mat = 0.5 * (mat + mat.T)
    return SscmEstimate(matrix=mat, kind="sscm", n_used=n, center=mu.copy(), median=median)


def _kendall_chunk(X: np.ndarray, c0: int, c1: int):
    """Accumulate sign outer products for pairs (i, j), c0 <= i < c1 <= j - 1."""
    p = X.shape[1]
    local = np.zeros((p, p))
    nonzero = 0
    for i in range(c0, c1):
        signs, count = _normalize_rows(X[i + 1 :] - X[i])
        local += signs.T @ signs
        nonzero += count
    return local, nonzero


def sample_kendall_tau(data, chunk_rows: int = 512) -> SscmEstimate:
    """Spatial Kendall's tau matrix: the SSCM of all pairwise differences.

    Averages s(x_i - x_j) s(x_i - x_j)^T over the n(n-1)/2 unordered pairs.
    Work is split into fixed row chunks that may run on up to
    ``thread_cap()`` threads; partial sums are reduced in chunk order, so the
    result is identical for any thread count.
    """
    X = _as_data_matrix(data)
    n, p = X.shape
    if n < 2:
        raise ValueError("the Kendall's tau matrix needs at least two observations")
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    starts = range(0, n - 1, chunk_rows)
    bounds = [(c0, min(c0 + chunk_rows, n - 1)) for c0 in starts]
    workers = min(thread_cap(), len(bounds))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: _kendall_chunk(X, *b), bounds))
    else:
        parts = [_kendall_chunk(X, c0, c1) for c0, c1 in bounds]
    total = np.zeros((p, p))
    for local, _ in parts:
        total += local
    n_pairs = n * (n - 1) // 2
    mat = total / n_pairs
    mat = 0.5 * (mat + mat.T)
    return SscmEstimate(matrix=mat, kind="kendall_tau", n_used=n, center=None)
