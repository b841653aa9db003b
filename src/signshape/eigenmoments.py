"""Eigenvalue maps and asymptotic covariance of the spatial sign covariance matrix.

Under an elliptical model, the population SSCM shares the eigenvectors of the
trace-normalized shape matrix, and its eigenvalues depend on the shape
eigenvalues lam (descending, summing to one) alone.  Writing Y for any
spherically distributed vector with P(Y = 0) = 0, u = log x,
g_i = lam_i x / (1 + lam_i x) and w = prod_k (1 + lam_k x)^{-1/2},

    sscm eigenvalue i:     E[ lam_i Y_i^2 / sum_k lam_k Y_k^2 ]  =  1/2 int g_i w du
    fourth moment (i, j):  E[ lam_i Y_i^2 lam_j Y_j^2 / (sum_k lam_k Y_k^2)^2 ]  =  1/4 int g_i g_j w du

for i != j (E[s_i^4] is three times the i = j integral).  The integrands are
analytic in |Im u| < pi and decay exponentially at both ends, so one
trapezoid rule on shared nodes converges like exp(-2 pi^2 / h) for both
families (Trefethen & Weideman, SIAM Review 2014).  Each halving of h thus
squares the error, so the rule estimates a level's error from the last two
gaps between levels of the eigenvalue integrals, as is usual for
double-exponential rules (Bailey, Jeyabalan & Li, 2005), and most spectra
stop at h = 1/4.  Each level reads only its new midpoints: its gap to the
level before is the new step times their sums less the old ones.  The table
is read once off the nodes of the accepted step, as h/4 F^T F with rows
sqrt(J w) g, one symmetric rank-k update, so it is exactly symmetric.  The
nodes are evenly spaced in t, not in u: u = t - exp(A - t) with A = -4 is
the identity right of A + 37 to double precision and squeezes the left tail
u in [log eps, A], where every integrand is nearly v e^u, into about 3.5
units of t (Takahasi & Mori, 1974).  At p = 10^4 that is a third of the
nodes.  The singularities at Re u = -log v_k >= 0 lie where the warp is all
but the identity, so the rule keeps its exponential convergence: in the
squeezed tail the integrand stays bounded for |Im t| < pi/2, which adds an
error of about e^A exp(-pi^2 / h), 4e-11 relative at h = 1/2.  Integrals run
once per distinct value, so p in the thousands poses no difficulty and equal
shape eigenvalues give exactly equal results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "AsymptoticCov",
    "DEFAULT_QUADRATURE",
    "QuadratureConfig",
    "QuadratureError",
    "Spectrum",
    "sign_fourth_moments",
    "sign_moment_matrix",
    "sscm_asymptotic_cov",
    "sscm_eigenvalues",
]

_LOG_EPS = math.log(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny
# the spacing of the doubles below _TINY
_SUBNORMAL_UNIT = 2.0**-1074
# the least error estimate a level reports: the gaps cannot resolve rounding below it
_ROUNDING = 4.0 * np.finfo(float).eps
# the first step is 1 in t; each halving doubles the nodes
_MAX_HALVINGS = 6
# the warp u = t - exp(_WARP - t) of the nodes; u(_T0) = log(eps) - log(_WARP - log(eps))
_WARP = -4.0
_T0 = _WARP - math.log(_WARP - _LOG_EPS)
# nodes per block times distinct values: keeps the working arrays cache-sized
_BLOCK = 1 << 16


class QuadratureError(RuntimeError):
    """The trapezoid rule failed to reach its tolerance; carries the residual."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance of the moment integrals."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass
class Spectrum:
    """Descending, non-negative eigenvalue vector normalized to sum one.

    Construction divides by the sum, so any positive multiple of ``values``
    describes the same spectrum.  Entries must already be sorted descending;
    use ``np.sort(v)[::-1]`` first if the ordering is not known.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum entries must be finite")
        if np.any(v < 0.0):
            raise ValueError("spectrum entries must be non-negative")
        if np.any(np.diff(v) > 0.0):
            raise ValueError("spectrum must be sorted in descending order")
        with np.errstate(over="ignore"):
            total = v.sum()
        if math.isinf(total):
            # finite entries whose sum overflows: rescale first
            v = v / v.max()
            total = v.sum()
        if not total > 0.0:
            raise ValueError("spectrum must have a positive sum")
        self.values = v / total

    @property
    def p(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        v = self.values
        if dtype is not None:
            v = v.astype(dtype, copy=False)
        return v.copy() if copy else v


def _as_spectrum(values) -> Spectrum:
    return values if isinstance(values, Spectrum) else Spectrum(np.asarray(values, dtype=float))


def _grouped(values):
    """Distinct nonzero values descending, float multiplicities, and each entry's
    index among them; a zero entry indexes one past the last value.  Strictly
    descending positive values, the usual input, are returned as they are."""
    if values[-1] > 0.0 and np.all(values[:-1] > values[1:]):
        return values, np.ones(values.size), np.arange(values.size)
    vals, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    k = vals.size - int(vals[0] == 0.0)
    return (
        np.ascontiguousarray(vals[::-1][:k]),
        counts[::-1][:k].astype(float),
        vals.size - 1 - inv,
    )


class _Moments(NamedTuple):
    """SSCM eigenvalues per distinct value (``m @ values == 1``), the cross table
    E[s_a^2 s_b^2] when requested (its diagonal is E[s_a^4] / 3), error estimate,
    step, and the number of evaluated integrand nodes per distinct value."""

    values: np.ndarray
    cross: np.ndarray | None
    error_estimate: float
    step: float
    nodes: int


def _log_weight(u: np.ndarray, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log w = -1/2 sum_k m_k log1p(v_k e^u) at nodes u, without overflow."""
    l1p = np.log1p(np.multiply.outer(np.exp(np.minimum(u, _LOG_MAX)), v))
    beyond = u > _LOG_MAX
    if beyond.any():
        l1p[beyond] = np.logaddexp(0.0, np.add.outer(u[beyond], np.log(v)))
    return -0.5 * (l1p @ m)


def _warp(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u = t - exp(_WARP - t) and log du/dt = log1p(exp(_WARP - t))."""
    squeeze = np.exp(_WARP - t)
    return t - squeeze, np.log1p(squeeze)


def _blocks(n: int, k: int):
    """Consecutive slices of n rows of k entries (nodes by values), about _BLOCK entries each."""
    step = max(1, _BLOCK // k)
    return (slice(start, start + step) for start in range(0, n, step))


def _node_sums(
    u: np.ndarray, log_jac: np.ndarray, v: np.ndarray, m: np.ndarray, rows=None, log_w=None
) -> np.ndarray:
    """Sums over nodes u of J w g (length k), with J = du/dt at each node given
    as ``log_jac`` and ``log_w`` holding log w at the nodes when it is already
    known.  With a list ``rows``, each n x k block g is scaled in place by
    sqrt(J w) per node and appended to it, for the table.
    """
    values = None
    for block in _blocks(u.size, v.size):
        nodes = u[block]
        log_jw = (_log_weight(nodes, v, m) if log_w is None else log_w[block]) + log_jac[block]
        decay = np.exp(-nodes)
        g = v / np.add.outer(decay, v)
        if v[-1] < _TINY:
            # a subnormal v's g turns where e^-u is subnormal too, with few bits;
            # there every factor of 1 / (1 + (e^(-u/2) / v) e^(-u/2)) is normal
            low, sub = decay < _TINY, v < _TINY
            half = np.exp(-0.5 * nodes[low])[:, None]
            g[np.ix_(low, sub)] = 1.0 / (1.0 + half / v[sub] * half)
        part = np.exp(log_jw) @ g
        values = part if values is None else np.add(values, part, out=values)
        if rows is not None:
            g *= np.exp(0.5 * log_jw)[:, None]
            rows.append(g)
    return values


def _moments(v: np.ndarray, m: np.ndarray, cfg: QuadratureConfig, cross: bool = False) -> _Moments:
    """SSCM eigenvalues and, if ``cross``, the cross table for distinct values v > 0.

    The nodes are u(t_j) with t_j = _T0 + j h evenly spaced in t and u(t) =
    t - exp(_WARP - t): the identity right of _WARP + 37 to double precision,
    while the left tail, where every integrand is nearly v e^u, is squeezed
    doubly exponentially (Takahasi & Mori, 1974).  u(_T0) <= log(eps), and
    below log(eps) each eigenvalue has relative mass about eps at most.  As
    1/2 sum_i m_i g_i w = -w', the mass of eigenvalue i beyond a node is at
    most w there over m_i, and ratio shrinkage gives m_i delta_i >= v_min /
    (p v_max); the last node is the first, on a scan of step 1 in t, where w
    falls below eps times that.  log w decreases in u, so the scan evaluates
    its nodes block by block and stops after the first block that reaches
    that floor; ``nodes`` counts the nodes evaluated.

    The step starts at 1 and is halved on nested nodes, and it is chosen on the
    eigenvalue integrals alone.  Let D_k be the gap between the results at h and
    h/2, the largest over the eigenvalue integrals, each relative to itself, and
    D_{k-1} the gap one halving back.  Level h/2 is accepted when
    D_k <= ``cfg.rel_tol``, or when D_k < D_{k-1} and
    max(D_k^2 / D_{k-1}, 4 eps) <= ``cfg.rel_tol``.  An error exp(-c/h) becomes
    exp(-2c/h) at h/2, so once the gaps shrink the next one shrinks by their
    ratio D_k / D_{k-1} or more: D_k^2 / D_{k-1} errs high as an estimate of
    the error at h/2, and 4 eps is rounding the gaps cannot resolve.  That
    value, or D_k while the gaps do not shrink, is ``error_estimate``, and the
    ``residual`` of the QuadratureError raised if _MAX_HALVINGS halvings do not
    reach the tolerance.  The second test needs two gaps, so it stops at h = 1/4
    at the earliest.  Level h/2 adds the midpoint sums M to the sums S of level
    h, and its result less that of level h is h/2 (M - S), so each gap is read
    off the new nodes with no copy of either level.  The table integrands
    g_a g_b w share the poles of the eigenvalue integrands g_a w, so the rule
    converges on them at the same rate.  So with ``cross`` every node's row
    sqrt(J w) g is kept, and once a level is accepted the table is formed once
    as h/4 F^T F, F the kept rows: one symmetric rank-k update, so it is
    exactly symmetric.

    The gaps see the trapezoid error only.  A subnormal eigenvalue delta is
    h/2 times a sum of node terms that each round by up to half a unit of
    2^-1074, and J w times half a unit more from g; nearly constant terms, as
    for the smallest value at p >= 3, all round the same way.  So once a level
    is accepted, ``error_estimate`` is raised to nodes h 2^-1074 / delta_min
    if that is larger: twice the bound at J w <= 1.

    The warp is entire and increasing, and the singularities of the
    integrands sit at Re u = -log v_k >= 0, Im u = +-pi, where the warp
    differs from the identity by exp(_WARP) or less; so the integrands in t
    stay analytic in a strip about the real axis, and the rule in t keeps its
    exponential convergence in 1/h (see the module docstring for the rate).
    """
    p = float(m.sum())
    log_floor = _LOG_EPS + math.log(v[-1]) - math.log(p * v[0])
    # past u = -log(v_min) every g_k >= 1/2, so log w falls by p/4 or more per
    # unit of u; top > 0, so u(top + 1) > top
    top = -math.log(v[-1]) - 4.0 * log_floor / p
    scan_t = _T0 + np.arange(math.ceil(top + 1.0 - _T0) + 1.0)
    scan_u, scan_jac = _warp(scan_t)
    # log w decreases in u, so no block past the first to reach the floor is read
    log_w = []
    for block in _blocks(scan_u.size, v.size):
        log_w.append(_log_weight(scan_u[block], v, m))
        if log_w[-1][-1] <= log_floor:
            break
    log_w = np.concatenate(log_w)
    span = int(np.argmax(log_w <= log_floor))
    nodes = log_w.size
    h = 1.0
    # the h = 1 level is the scan up to its last node, log weights and all
    head = slice(span + 1)
    rows = [] if cross else None
    values = _node_sums(scan_u[head], scan_jac[head], v, m, rows, log_w[head])
    previous = 0.0  # the gap one halving back; none before the first
    for _ in range(_MAX_HALVINGS):
        mid_u, mid_jac = _warp(_T0 + h * (np.arange(span / h) + 0.5))
        nodes += mid_u.size
        mid_values = _node_sums(mid_u, mid_jac, v, m, rows)
        h *= 0.5
        # the fine result less the coarse is h (mid - old), read off the new nodes
        change = np.abs(mid_values - values)
        values += mid_values
        gap = float(np.max(h * change / np.maximum(h * values, _TINY)))
        # once the gaps shrink, the next shrinks by their ratio or more
        error = max(gap * gap / previous, _ROUNDING) if gap < previous else gap
        if gap <= cfg.rel_tol or error <= cfg.rel_tol:
            break
        previous = gap
    else:
        raise QuadratureError(
            f"trapezoid result at step {h:g} has estimated error {error:.3e} relative "
            f"(rel_tol {cfg.rel_tol:.3e})",
            residual=error,
        )
    values *= 0.5 * h
    total = float(m @ values)
    defect = abs(total - 1.0)
    if not math.isfinite(total) or defect > 10.0 * cfg.rel_tol:
        raise QuadratureError(
            f"eigenvalue integrals sum to {total!r} before normalization "
            f"(defect {defect:.3e} exceeds {10.0 * cfg.rel_tol:.3e})",
            residual=defect,
        )
    table = None
    if cross:
        # 1/4 int g g^T w du on the accepted nodes, one symmetric rank-k update;
        # h/4 scales the product, as F's subnormal entries would lose bits to it
        f = np.concatenate(rows)
        table = f.T @ f
        table *= 0.25 * h
    values /= total
    smallest = float(values.min())
    if smallest < _TINY:
        # a subnormal eigenvalue sums terms rounded to units of 2^-1074, which the gaps miss
        error = max(error, nodes * h * _SUBNORMAL_UNIT / max(smallest, _SUBNORMAL_UNIT))
    return _Moments(values, table, error, h, nodes)


def _per_entry(shape_spectrum, cfg: QuadratureConfig | None, cross: bool = False) -> _Moments:
    """The quadrature of the distinct nonzero values, read out per entry.

    Ties share one integral and zero entries read exact zeros.  A single
    distinct value of multiplicity m takes the exact table: the sign is then
    uniform on the unit sphere of the support, so E[s_a^2] = 1/m and
    E[s_a^2 s_b^2] = 1/(m(m + 2)) for a != b (E[s_a^4] is three times that),
    with error estimate 0, step 0 and no nodes.
    """
    lam = _as_spectrum(shape_spectrum)
    vals, counts, inv = _grouped(lam.values)
    if vals.size == 1:
        m = counts[0]
        table = np.array([[1.0 / (m * (m + 2.0))]]) if cross else None
        quad = _Moments(np.array([1.0 / m]), table, 0.0, 0.0, 0)
    else:
        quad = _moments(vals, counts, cfg or DEFAULT_QUADRATURE, cross)
    if vals.size == lam.p:
        return quad  # distinct nonzero entries, already descending
    table = np.pad(quad.cross, (0, 1))[np.ix_(inv, inv)] if cross else None
    return quad._replace(values=np.append(quad.values, 0.0)[inv], cross=table)


def _descending(delta: np.ndarray) -> Spectrum:
    # guard against order inversions from quadrature noise between near-ties
    return Spectrum(np.minimum.accumulate(delta))


def sscm_eigenvalues(shape_spectrum, cfg: QuadratureConfig | None = None) -> Spectrum:
    """Map shape-matrix eigenvalues to the eigenvalues of the population SSCM.

    Parameters
    ----------
    shape_spectrum : Spectrum or array_like
        Shape-matrix eigenvalues, descending; normalized to sum one on entry.
    cfg : QuadratureConfig, optional
        Quadrature tolerance; defaults to ``DEFAULT_QUADRATURE``.

    Returns
    -------
    Spectrum
        SSCM eigenvalues.  Zero input eigenvalues map to exact zeros, tied
        inputs map to identical outputs (one integral per distinct value),
        a spectrum equal on its m-entry support maps to the exact 1/m there
        without quadrature, and the result is renormalized to sum one.  A
        pre-normalization defect above ``10 * cfg.rel_tol``, or a step that
        cannot be refined to ``cfg.rel_tol``, raises :class:`QuadratureError`.
        An SSCM eigenvalue that is itself subnormal sums subnormal terms and
        can be off by about 1e-4 relative: ``[2/3, 1/3, 6.66e-321]`` maps its
        last entry to 5.19877e-318, against 5.19796e-318 from a 40-digit
        quadrature.  The quadrature's error estimate (``signshape map``
        reports it) is raised to cover that rounding, here to 9.7e-4, with no
        effect on whether the tolerance is met.
    """
    return _descending(_per_entry(shape_spectrum, cfg).values)


def _pairings(basis: np.ndarray, cross: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """V direct V^T + G[i,k,j,l] + G[i,l,j,k], G = V cross V^T, V = [vec(o_a o_a^T)], in O(p^5).

    Sign-flip symmetry gives E[s_a s_b s_c s_d] = d_ab d_cd C_ac + (d_ac d_bd + d_ad d_bc) C_ab,
    so with direct = cross this is the sign moment matrix in basis O.  Built on the p(p+1)/2
    sorted index pairs, symmetrized there and gathered out, the result is exactly symmetric and
    exactly invariant under i <-> j and k <-> l, as every term is in exact arithmetic.

    The two GEMMs run over all pairs at once.  The pair matrix is gathered from G, and the
    result from the pair matrix, in row blocks of about _BLOCK entries, each block's indices
    built as it goes.  G, V direct V^T and the pair matrix's transpose take turns in the head
    of the result's buffer before the last gather fills it, so the peak is the result, the
    pair matrix (a quarter of the result) and one block: about 1.3 times the result.
    """
    p = basis.shape[0]
    i, j = np.triu_indices(p)
    n = i.size
    pair = np.empty((p, p), dtype=np.intp)  # sorted-pair index of (a, b)
    pair[i, j] = pair[j, i] = np.arange(n)
    # row a of pair_i (pair_j) holds the pair index of (a, i_s) ((a, j_s)) for each pair s
    pair_i, pair_j = pair[:, i], pair[:, j]
    vecs = basis[i] * basis[j]
    w = np.empty((p * p, p * p))
    # n^2 <= p^4 entries at the head of w, free until the gather out to p^2 x p^2
    scratch = w.reshape(-1)[: n * n].reshape(n, n)
    g = np.matmul(vecs @ cross, vecs.T, out=scratch).ravel()
    half = np.empty((n, n))
    # mode="clip" lets take write straight into out, which the default mode
    # buffers; every index is in range
    for rows in _blocks(n, n):
        # G[i,k,j,l] and G[i,l,j,k] at pairs (i, j) = rows and (k, l) = all pairs
        out = half[rows]
        np.take(g, pair_i[i[rows]] * n + pair_j[j[rows]], out=out, mode="clip")
        out += g.take(pair_j[i[rows]] * n + pair_i[j[rows]])
    half += np.matmul(vecs @ direct, vecs.T, out=scratch)
    # half += half.T, with the transpose copied to scratch rather than to a new array
    np.copyto(scratch, half.T)
    half += scratch
    half *= 0.5
    index = pair.ravel()
    for rows in _blocks(p * p, p * p):
        np.take(half.take(index[rows], axis=0), index, axis=1, out=w[rows], mode="clip")
    return w


def _gamma(cross: np.ndarray) -> np.ndarray:
    """The sign moment matrix in the eigenbasis, scattered from the cross table.

    Sign-flip symmetry gives E[s_i s_j s_k s_l] = d_ij d_kl C_ik + (d_ik d_jl + d_il d_jk) C_ij,
    so its only nonzero entries are C_ik at ((i, i), (k, k)), C_ij at ((i, j), (i, j)) and
    ((i, j), (j, i)), and 3 C_ii where all four indices agree: p(3p - 2) of the p^4.
    """
    p = cross.shape[0]
    gamma = np.zeros((p, p, p, p))
    a = np.arange(p)
    row, col = a[:, None], a[None, :]
    gamma[row, row, col, col] = cross
    gamma[row, col, row, col] = cross
    gamma[row, col, col, row] = cross
    gamma[a, a, a, a] = 3.0 * np.diagonal(cross)
    return gamma.reshape(p * p, p * p)


def sign_fourth_moments(shape_spectrum, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Fourth moments E[s_i^2 s_j^2] of the spatial sign vector in the eigenbasis.

    Returns the symmetric p x p table whose row sums reproduce the SSCM
    eigenvalues.  Rows and columns at zero shape eigenvalues are exactly zero.
    A spectrum equal on its m-entry support gets the exact table 3/(m(m + 2))
    on the support's diagonal and 1/(m(m + 2)) off it, without quadrature.
    """
    table = _per_entry(shape_spectrum, cfg, cross=True).cross
    table[np.diag_indices_from(table)] *= 3.0
    return table


def sign_moment_matrix(shape_spectrum, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Second-moment matrix E[vec(s s^T) vec(s s^T)^T] of the sign outer product.

    In the shape eigenbasis every entry is a mixed fourth moment
    E[s_a s_b s_c s_d].  Sign-flip symmetry of each coordinate kills every
    entry with an unpaired index, so for a p x p problem only p(3p - 2) of
    the p^4 entries can be nonzero; the remaining entries are exactly zero.
    Row-major vec ordering is used (position of matrix entry (i, j) is i*p + j).
    """
    return _gamma(_per_entry(shape_spectrum, cfg, cross=True).cross)


@dataclass
class AsymptoticCov:
    """Asymptotic covariance of sqrt(n) vec(S_n) with its building blocks.

    ``w`` is the p^2 x p^2 covariance, ``cross`` the p x p table
    E[s_a^2 s_b^2] of the sign vector in the eigenbasis, whose diagonal is
    E[s_a^4] / 3 (:func:`sign_fourth_moments` is the same table with that
    diagonal tripled), ``eigenvectors`` the orthogonal matrix O that carries
    the eigenbasis into the data coordinates, and ``sscm_spectrum`` the
    population SSCM eigenvalues from the same quadrature, bitwise equal to
    :func:`sscm_eigenvalues` of the spectrum: order-guarded and renormalized.
    W is centred with the per-entry values before that step, which can
    differ from ``sscm_spectrum`` in the last bit.

    ``gamma``, the uncentered sign moment matrix in the eigenbasis, is a
    second p^2 x p^2 array: it is scattered from ``cross`` when first read
    and kept, bitwise equal to :func:`sign_moment_matrix` of the spectrum.
    ``w`` and ``gamma`` are exactly symmetric and, as S_n is, exactly
    invariant under i <-> j and under k <-> l in their entry ((i, j), (k, l)):
    ``w`` is gathered from one matrix over the sorted index pairs, and
    ``gamma`` is scattered from the exactly symmetric cross table.
    """

    w: np.ndarray
    cross: np.ndarray
    eigenvectors: np.ndarray
    sscm_spectrum: Spectrum

    @cached_property
    def gamma(self) -> np.ndarray:
        return _gamma(self.cross)


def sscm_asymptotic_cov(
    eigenvectors, shape_spectrum, cfg: QuadratureConfig | None = None
) -> AsymptoticCov:
    """Asymptotic covariance of the sample SSCM at an elliptical population.

    W is ``(O kron O) (gamma - vec(D) vec(D)^T) (O kron O)^T``, D the diagonal
    matrix of SSCM eigenvalues and O the shape eigenvectors, built directly in
    basis O from the sign-flip pairing.  ``eigenvectors`` must be orthogonal
    to within 1e-10.

    The result keeps W, 8 p^4 bytes, and p x p arrays: gamma is formed when
    first read.  The call peaks at about 1.3 times W (see ``_pairings``).
    """
    lam = _as_spectrum(shape_spectrum)
    p = len(lam)
    basis = np.asarray(eigenvectors, dtype=float)
    if basis.shape != (p, p):
        raise ValueError(f"eigenvector matrix must be {p} x {p}, got {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise ValueError("eigenvector matrix must be finite")
    ortho_defect = np.abs(basis.T @ basis - np.eye(p)).max()
    if ortho_defect > 1e-10:
        raise ValueError(
            f"eigenvector matrix is not orthogonal (defect {ortho_defect:.3e} > 1e-10)"
        )
    delta, cross = _per_entry(lam, cfg, cross=True)[:2]
    # vec(O D O^T) = V delta, so the centering joins the direct term
    w = _pairings(basis, cross, cross - np.outer(delta, delta))
    return AsymptoticCov(
        w=w, cross=cross, eigenvectors=basis.copy(), sscm_spectrum=_descending(delta)
    )
