"""Sign-based scatter estimation: spatial signs, the spatial median, and the
sample spatial sign covariance matrix (SSCM) plus its pairwise-difference
variant, the spatial Kendall's tau matrix.

All functions are pure and safe to call concurrently; two threads that
form the same estimate's matrix at once write the same bits.  The SSCM
sums s s^T over the spatial signs S of the centred rows as S^T S.  Kendall's
tau sums them over all pairwise differences as a Laplacian form of the
centred data, built from blocked Gram GEMMs; the pairs whose weights those
GEMMs cannot resolve accurately go through the same sign kernel as the SSCM,
difference by difference.  The spatial median starts at the coordinate-wise
median, from one sort, and takes Newton steps on the p x p Hessian when
p^2 <= n, Weiszfeld steps otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "PairCounts",
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
# squared norms below the smallest normal double have lost precision
_TINY = np.finfo(float).tiny
# Kendall's tau sums its pairs in blocks of this many rows by this many; a pair
# takes the Gram path when its squared distance exceeds this share of r_i + r_j
# and twice the floor, so that its weight is below 2^899 and no sum of weights
# overflows
_BLOCK = 512
_GRAM_SHARE = 1.0 / 16
_GRAM_FLOOR = 2.0**-900
# doubles per chunk of differences formed on Kendall's direct path, small enough
# to stay in cache at small p; a chunk has at least _BLOCK rows, so that its
# rank-k update of the p x p sum stays efficient at large p
_CHUNK = 1 << 16


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
    rescale = ~((sq >= _TINY) & np.isfinite(sq))
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
    the requested tolerance whenever ``converged`` is true.  ``iterations``
    counts the steps taken, Newton and Weiszfeld alike; a Newton step that is
    tried and not kept is not one.  ``at_data_point`` is true when
    ``location`` is returned as an observation: the iteration ended on a
    data point, or every observation is at the same point.
    """

    location: np.ndarray
    converged: bool
    iterations: int
    residual_gradient_norm: float
    at_data_point: bool = False


def _pull(X: np.ndarray, mu: np.ndarray) -> tuple:
    """The gradient residual at mu (nan when not finite), the sum of the unit
    vectors from mu to the rows of X not at mu, the inverse distances of
    those rows, the number of rows at mu, every distance and every
    difference X - mu.

    When no row is at mu, as is usual, the differences and distances are used
    as they are, with no masked copies.
    """
    diff = X - mu
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    n_anchor = int(np.count_nonzero(dist == 0.0))
    away = dist != 0.0 if n_anchor else slice(None)
    w = 1.0 / dist[away]
    pull = w @ diff[away]
    # max keeps its first argument unless the second is larger: nan stays nan
    return max(float(np.linalg.norm(pull)) - n_anchor, 0.0), pull, w, n_anchor, dist, diff


def _coordinate_median(X: np.ndarray) -> np.ndarray:
    """``np.median(X, axis=0)`` by one sort: the middle row, or the mean of
    the two middle rows, of the sorted columns (bitwise equal, overflow to
    inf included)."""
    s = np.sort(X, axis=0)
    h = len(X) // 2
    if len(X) % 2:
        return s[h]
    with np.errstate(over="ignore"):
        return (s[h - 1] + s[h]) / 2


def spatial_median(data, tol: float = 1e-10, max_iter: int = 1000) -> SpatialMedian:
    """Minimize the sum of Euclidean distances to the observations.

    The iteration starts at the coordinate-wise median, taken from one sort
    of the columns (of the halved data, doubled back, when two middle values
    would sum past the largest double).  The data are centred once there, so
    its updates round at the spread of the data rather than at their distance
    from the origin.  Centred data far from unit size are also scaled by a
    power of two to it, which is exact, so they converge as they would at
    scale one.  Every returned location undoes both.

    When p^2 <= n, where the p x p Hessian costs no more than a few
    Weiszfeld steps, each step tries a Newton step: it solves H s = pull with
    H = (sum w) I - B^T B, B the differences scaled by w^(3/2) and w the
    inverse distances.  The step, or else its half, quarter or eighth, is
    kept when it lowers the summed distances by more than their rounding, or
    lowers the residual without raising them by more.  A row at the iterate,
    a failed solve or no step kept makes that one step a Weiszfeld step,
    which lowers the summed distances from any point; the next step tries
    Newton again.

    Otherwise each step is a damped Weiszfeld step with the anchor-point
    correction: when the iterate coincides with data points, the step is
    shrunk by the multiplicity at the anchor and optimality is judged by the
    subgradient condition there.  When the iterates close in on an
    observation faster than the residual falls, or stall short of it, that
    observation is returned, converged, if the subgradient condition holds
    there.  On non-convergence the best iterate seen is returned with
    ``converged=False``.
    """
    X = _as_data_matrix(data)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    n, p = X.shape
    origin = _coordinate_median(X)
    if not np.all(np.isfinite(origin)):
        # two middle values summed past the largest double: halve them first
        origin = 2.0 * _coordinate_median(0.5 * X)
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
    newton = p * p <= n
    mu = np.zeros_like(origin)
    best_mu, best_res = mu, np.inf
    near, near_dist, last_res = -1, np.inf, np.inf
    trial = None
    for iterations in range(max_iter + 1):  # at least once, as max_iter >= 0
        residual, pull, w, n_anchor, dist, diff = trial or _pull(centred, mu)
        if not np.isfinite(residual):
            break
        if residual < best_res:
            best_mu, best_res = mu, residual
        if residual <= tol:
            if n_anchor:
                return SpatialMedian(X[np.argmin(dist)].copy(), True, iterations, residual, True)
            return SpatialMedian(origin + np.ldexp(mu, exponent), True, iterations, residual)
        if iterations == max_iter:
            break
        # step by a correction to mu: its rounding scales with the step, not
        # with |X| as a weighted mean of X would, so the residual can reach tol
        trial = None
        if newton and not n_anchor:  # a row at the iterate has no Hessian
            B = diff * (w * np.sqrt(w))[:, None]
            hessian = -(B.T @ B)
            hessian.flat[:: p + 1] += w.sum()
            try:
                step = np.linalg.solve(hessian, pull)
            except np.linalg.LinAlgError:
                pass
            else:
                # near a data point the quadratic model overshoots, and the
                # residual alone lets such steps cycle: judge them by the summed
                # distances too, which a Weiszfeld step always lowers, and by the
                # residual within 32 eps of that pairwise sum, its rounding
                total = dist.sum()
                slack = 32 * np.finfo(float).eps * total
                for _ in range(4):  # the step and three halvings
                    target = mu + step
                    trial = _pull(centred, target)
                    rise = trial[4].sum() - total
                    if rise < -slack or rise <= slack and trial[0] < residual:
                        break
                    step /= 2
                else:
                    trial = None
        if trial is None:
            shift = pull / w.sum()
            if n_anchor:  # here |pull| > n_anchor, as the residual is positive
                shift *= 1.0 - n_anchor / float(np.linalg.norm(pull))
            target = mu + shift
        stalled = np.array_equal(target, mu)
        nearest = int(np.argmin(dist))
        # toward a data point that minimizes, the iterates close in only
        # linearly while the residual levels off, and stall just short of it
        # at float precision: judge the point by its subgradient as soon as
        # the distance to it shrinks by a larger factor than the residual
        if stalled or (nearest == near and dist[nearest] * last_res < near_dist * residual):
            anchor_res = _pull(centred, centred[nearest])[0]
            if anchor_res <= tol:
                return SpatialMedian(X[nearest].copy(), True, iterations, anchor_res, True)
            if stalled:
                break
        near, near_dist, last_res = nearest, dist[nearest], residual
        mu = target
    return SpatialMedian(origin + np.ldexp(best_mu, exponent), best_res <= tol, iterations, best_res)


class PairCounts(NamedTuple):
    """Pairs of a Kendall's tau matrix: all of them, those with a zero
    difference, and those whose signs were formed from their differences."""

    total: int
    zero: int
    direct: int


@dataclass(init=False)
class SscmEstimate:
    """A sample spatial sign covariance matrix with its provenance.

    ``kind`` is ``"sscm"`` or ``"kendall_tau"``.  The trace equals the
    fraction of terms with a nonzero spatial sign, hence is at most one.
    ``center`` is None for the Kendall variant; ``median`` records the
    centering iteration when it was run internally.

    ``signs`` is the n x p matrix S of the spatial signs of the centred rows
    of a sample SSCM, whose ``matrix`` is S^T S / n; it is None
    for Kendall's tau and for estimates built by hand.  When n < p the SSCM
    has rank at most n, and :func:`signshape.sscm_eigensystem` decomposes the
    n x n Gram matrix S S^T / n instead of ``matrix``.

    ``matrix`` may be None only when ``signs`` is given: the p x p matrix is
    then formed from them on first read and kept, so an estimate that is
    only decomposed never holds it (at p = 5000 it is 200 MB).  It is not a
    dataclass field.

    ``pairs`` holds the :class:`PairCounts` of Kendall's tau, whose trace is
    1 - zero/total; it is None for the SSCM.
    """

    kind: str
    n_used: int
    center: np.ndarray | None
    median: SpatialMedian | None = None
    signs: np.ndarray | None = None
    pairs: PairCounts | None = None

    def __init__(self, matrix, kind, n_used, center, median=None, signs=None, pairs=None):
        if matrix is not None:
            self.matrix = matrix
        elif signs is None:
            raise ValueError("an SscmEstimate needs its matrix or its spatial signs")
        self.kind, self.n_used, self.center = kind, n_used, center
        self.median, self.signs, self.pairs = median, signs, pairs

    @cached_property
    def matrix(self) -> np.ndarray:
        # numpy forms S^T S as a symmetric rank-k update: exactly symmetric as it is;
        # dividing in place gives the bits of S^T S / n without a second p x p array
        mat = self.signs.T @ self.signs
        mat /= self.n_used
        return mat


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
        together with the spatial signs it is built from; the matrix is formed
        from them when ``matrix`` is first read.  Observations equal to the
        center contribute zero, so the trace can fall below one.
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
    return SscmEstimate(None, "sscm", n, mu.copy(), median, signs)


def sample_kendall_tau(data) -> SscmEstimate:
    """Spatial Kendall's tau matrix: the SSCM of all pairwise differences.

    Averages s(x_i - x_j) s(x_i - x_j)^T over the n(n-1)/2 unordered pairs.
    With d_ij = xc_i - xc_j and w_ij = 1/|d_ij|^2, their sum is a Laplacian
    form in the centred data:

        sum_{i<j} w_ij d_ij d_ij^T = Xc^T diag(W1) Xc - (C + C^T),

    where Xc is the data scaled by a power of two to unit size and centred at
    its coordinate-wise median, which a few outlying rows do not pull away
    from the bulk of the data, W1 holds the row sums of the weights, and
    C = sum_{i<j} w_ij xc_i xc_j^T = Xc^T V, where row i of V is the sum of
    w_ij xc_j over j > i.  It is formed as M + M^T with
    M = Xc^T (diag(W1)/2 Xc - V), so it is exactly symmetric.  The pairs are
    taken in blocks of 512 rows by 512: per block, one GEMM gives the squared
    distances D^2 = r_i + r_j - 2 xc_i.xc_j, r_i = |xc_i|^2, one more the
    margin of D^2 over the bound below, and a third adds the weighted rows to
    V.  The work is O(n^2 p) flops in GEMMs plus O(n^2) elementwise work, in
    O((n + p) p) memory besides the result.

    A pair takes this Gram path when D^2 > f_i + f_j, with
    f_i = max(r_i/16, 2^-900).  The floor keeps every weight below 2^899, so
    no row sum of n weights overflows.  The rounding of D^2 is at
    most about 2(p + 2) eps (r_i + r_j), so on the Gram path the relative
    error of D^2, hence of the weight, is at most about 32(p + 2) eps; the
    centring rounds d_ij by at most 6 eps relative; and a pair's Laplacian
    terms are at most 2(r_i + r_j) w_ij < 32 times its unit term, which
    bounds their cancellation by the same factor.  Every other pair takes the
    direct path: duplicates and near-duplicates, rows at or near the centre,
    and pairs at scales far below the data's, whose centred rows cancel or
    underflow.  Its difference x_j - x_i is formed from the data (halved when
    it could overflow), in chunks of at most max(2^16, 512 p) doubles, and
    its spatial sign is summed by a symmetric rank-k update, as pair by pair.

    ``pairs`` counts all pairs, those with a zero difference, whose sign is
    zero (the trace is 1 - zero/total), and those on the direct path.
    """
    X = _as_data_matrix(data)
    n, p = X.shape
    if n < 2:
        raise ValueError("the Kendall's tau matrix needs at least two observations")
    (X,) = _overflow_safe(X)
    # a power of two is exact, save for entries it takes below the normal range,
    # which only pairs at far smaller scales than the data see, and they go direct
    xc = np.ldexp(X, -int(np.frexp(np.abs(X).max())[1]))
    xc -= _coordinate_median(xc)
    r = np.einsum("ij,ij->i", xc, xc)
    # one GEMM of [-2 xc_i, r_i, 1] by [xc_j, 1, r_j] gives D^2 = r_i + r_j - 2 xc_i.xc_j,
    # and one more, with the floors f_i = max(r_i/16, 2^-900) taken off r, its margin
    # D^2 - f_i - f_j over the Gram path's bound
    floor = np.maximum(_GRAM_SHARE * r, _GRAM_FLOOR)
    dist_rows = np.column_stack([-2.0 * xc, r, np.ones(n)])
    dist_cols = np.column_stack([xc, np.ones(n), r]).T.copy()
    margin_rows, margin_cols = dist_rows.copy(), dist_cols.copy()
    margin_rows[:, p] -= floor
    margin_cols[p + 1] -= floor
    w1 = np.zeros(n)
    pulled = np.zeros((n, p))  # row i: the sum of w_ij xc_j over the Gram pairs i < j
    direct = 0.0  # the sum of s s^T over the direct pairs, an array from the first of them
    b = min(n, _BLOCK)
    # per-block work arrays, allocated once: fresh ones cost more in page faults
    # than their arithmetic at small p
    sq_buf, margin_buf = np.empty((2, b, b))
    gram_buf, rest_buf = np.empty((2, b, b), dtype=bool)
    upper = np.triu(np.ones((b, b), dtype=bool), 1)
    ones = np.ones(b)
    chunk = max(_BLOCK, _CHUNK // p)
    n_direct = n_zero = 0
    for lo in range(0, n, b):
        rows = slice(lo, lo + b)
        h = min(b, n - lo)
        for lo2 in range(lo, n, b):
            cols = slice(lo2, lo2 + b)
            k = min(b, n - lo2)
            margin = np.matmul(margin_rows[rows], margin_cols[:, cols], out=margin_buf[:h, :k])
            gram = np.greater(margin, 0.0, out=gram_buf[:h, :k])
            if lo2 == lo:
                gram &= upper[:h, :h]
            rest = np.logical_not(gram, out=rest_buf[:h, :k])
            sq = np.matmul(dist_rows[rows], dist_cols[:, cols], out=sq_buf[:h, :k])
            # 1/inf = 0: the weights vanish off the Gram path, and no division warns
            np.copyto(sq, np.inf, where=rest)
            weights = np.reciprocal(sq, out=sq)
            pulled[rows] += weights @ xc[cols]
            w1[rows] += weights @ ones[:k]
            w1[cols] += ones[:h] @ weights
            if lo2 == lo:
                rest &= upper[:h, :h]
            ii, jj = np.divmod(np.flatnonzero(rest), k)
            n_direct += ii.size
            for start in range(0, ii.size, chunk):
                # np.take from the blocks gathers faster than fancy indexing of X
                diff = np.take(X[cols], jj[start : start + chunk], axis=0)
                diff -= np.take(X[rows], ii[start : start + chunk], axis=0)
                n_zero += int(np.count_nonzero(~diff.any(axis=1)))
                signs = _spatial_signs(diff)
                direct += signs.T @ signs
    # M + M^T, with M = Xc^T (diag(W1)/2 Xc - V) and V the pulled rows, is the
    # Laplacian form and exactly symmetric; the direct pairs enter M halved, exactly
    mat = xc.T @ (xc * (0.5 * w1)[:, None] - pulled)
    direct *= 0.5
    mat += direct
    del direct
    mat += mat.T
    n_pairs = n * (n - 1) // 2
    mat /= n_pairs
    return SscmEstimate(mat, "kendall_tau", n, None, pairs=PairCounts(n_pairs, n_zero, n_direct))
