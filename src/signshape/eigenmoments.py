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
families (Trefethen & Weideman, SIAM Review 2014).  Integrals run once per
distinct value, so p in the thousands poses no difficulty and equal shape
eigenvalues give exactly equal results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# the first step is 1 in u; each halving doubles the nodes
_MAX_HALVINGS = 6
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
    """Distinct values descending, float multiplicities, per-entry distinct index."""
    vals, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (
        np.ascontiguousarray(vals[::-1]),
        np.ascontiguousarray(counts[::-1]).astype(float),
        vals.size - 1 - inv,
    )


class _Moments(NamedTuple):
    """SSCM eigenvalues per distinct value (``m @ values == 1``), the cross table
    E[s_a^2 s_b^2] when requested (its diagonal is E[s_a^4] / 3), error estimate, step."""

    values: np.ndarray
    cross: np.ndarray | None
    error_estimate: float
    step: float


def _log_weight(u: np.ndarray, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log w = -1/2 sum_k m_k log1p(v_k e^u) at nodes u, without overflow."""
    l1p = np.log1p(np.multiply.outer(np.exp(np.minimum(u, _LOG_MAX)), v))
    beyond = u > _LOG_MAX
    if beyond.any():
        l1p[beyond] = np.logaddexp(0.0, np.add.outer(u[beyond], np.log(v)))
    return -0.5 * (l1p @ m)


def _blocks(u: np.ndarray, k: int):
    """Consecutive pieces of the nodes u, each with about _BLOCK node-value pairs."""
    step = max(1, _BLOCK // k)
    return (u[start : start + step] for start in range(0, u.size, step))


def _node_sums(u: np.ndarray, v: np.ndarray, m: np.ndarray, cross: bool) -> np.ndarray:
    """Sums over nodes u of w g and, if ``cross``, of w g g^T: a k x 1 or k x (1 + k) array."""
    sums = np.zeros((v.size, 1 + v.size * cross))
    for nodes in _blocks(u, v.size):
        g = v / np.add.outer(np.exp(-nodes), v)
        factors = np.column_stack([np.ones(nodes.size), g]) if cross else np.ones((nodes.size, 1))
        sums += (g.T * np.exp(_log_weight(nodes, v, m))) @ factors
    return sums


def _moments(v: np.ndarray, m: np.ndarray, cfg: QuadratureConfig, cross: bool = False) -> _Moments:
    """SSCM eigenvalues and, if ``cross``, the cross table for distinct values v > 0.

    Nodes are log(eps) + j h: below log(eps) each eigenvalue has relative mass
    about eps at most.  As 1/2 sum_i m_i g_i w = -w', the mass of eigenvalue i
    beyond a node is at most w there over m_i, and ratio shrinkage gives
    m_i delta_i >= v_min / (p v_max); the last node is the first where w falls
    below eps times that.  The step starts at 1 and is halved on nested nodes
    until two results agree to ``cfg.rel_tol``: every integral relative to its
    row's eigenvalue integral int g_a w du.
    """
    p = float(m.sum())
    log_floor = _LOG_EPS + math.log(v[-1] / (p * v[0]))
    # past u = -log(v_min) every g_k >= 1/2, so log w falls by p/4 or more per unit of u
    top = -math.log(v[-1]) - 4.0 * log_floor / p
    scan = _LOG_EPS + np.arange(math.ceil(top - _LOG_EPS) + 1.0)
    log_w = np.concatenate([_log_weight(nodes, v, m) for nodes in _blocks(scan, v.size)])
    span = float(np.argmax(log_w <= log_floor))
    h = 1.0
    sums = _node_sums(scan[: int(span) + 1], v, m, cross)
    for _ in range(_MAX_HALVINGS):
        coarse = h * sums
        sums = sums + _node_sums(_LOG_EPS + h * (np.arange(span / h) + 0.5), v, m, cross)
        h *= 0.5
        error = float(np.max(np.abs(h * sums - coarse) / np.maximum(h * sums[:, :1], _TINY)))
        if error <= cfg.rel_tol:
            break
    else:
        raise QuadratureError(
            f"trapezoid results at steps {2.0 * h:g} and {h:g} still differ by "
            f"{error:.3e} relative (rel_tol {cfg.rel_tol:.3e})",
            residual=error,
        )
    values = 0.5 * h * sums[:, 0]
    total = float(m @ values)
    defect = abs(total - 1.0)
    if not math.isfinite(total) or defect > 10.0 * cfg.rel_tol:
        raise QuadratureError(
            f"eigenvalue integrals sum to {total!r} before normalization "
            f"(defect {defect:.3e} exceeds {10.0 * cfg.rel_tol:.3e})",
            residual=defect,
        )
    # 1/4 int g g^T w du, symmetric to the last bit whatever order the GEMM summed in
    table = 0.125 * h * (sums[:, 1:] + sums[:, 1:].T) if cross else None
    return _Moments(values / total, table, error, h)


def _sscm_map(shape_spectrum, cfg: QuadratureConfig | None) -> tuple[Spectrum, _Moments]:
    """SSCM eigenvalues together with the quadrature that produced them."""
    lam = _as_spectrum(shape_spectrum)
    vals, counts, inv = _grouped(lam.values)
    nonzero = vals > 0.0
    quad = _moments(vals[nonzero], counts[nonzero], cfg or DEFAULT_QUADRATURE)
    out = np.zeros_like(vals)
    out[nonzero] = quad.values
    return _descending(out[inv]), quad


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
        and the result is renormalized to sum one.  A pre-normalization
        defect above ``10 * cfg.rel_tol``, or a step that cannot be refined
        to ``cfg.rel_tol``, raises :class:`QuadratureError`.
    """
    return _sscm_map(shape_spectrum, cfg)[0]


def _sign_moments(lam: Spectrum, cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry SSCM eigenvalues and cross table (diagonal E[s_a^4] / 3) from one quadrature."""
    vals, counts, inv = _grouped(lam.values)
    nonzero = vals > 0.0
    delta = np.zeros(vals.size)
    cross = np.zeros((vals.size, vals.size))
    if nonzero.sum() == 1 and counts[0] == 1.0:
        # all mass on one axis: the sign concentrates there and s_1^4 = 1
        delta[0], cross[0, 0] = 1.0, 1.0 / 3.0
    else:
        quad = _moments(vals[nonzero], counts[nonzero], cfg, cross=True)
        delta[nonzero] = quad.values
        cross[np.ix_(nonzero, nonzero)] = quad.cross
    return delta[inv], cross[np.ix_(inv, inv)]


def _pairings(basis: np.ndarray, cross: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """V direct V^T + G[i,k,j,l] + G[i,l,j,k], G = V cross V^T, V = [vec(o_a o_a^T)], in O(p^5).

    Sign-flip symmetry gives E[s_a s_b s_c s_d] = d_ab d_cd C_ac + (d_ac d_bd + d_ad d_bc) C_ab,
    so with direct = cross this is the sign moment matrix in basis O.
    """
    p = basis.shape[0]
    vecs = np.einsum("ia,ja->ija", basis, basis).reshape(p * p, p)
    g = (vecs @ cross @ vecs.T).reshape(p, p, p, p)
    out = np.add(g.transpose(0, 2, 1, 3), g.transpose(0, 2, 3, 1), order="C").reshape(p * p, p * p)
    del g  # freed before the direct term's p^4 temporary
    out += vecs @ direct @ vecs.T
    return out


def sign_fourth_moments(shape_spectrum, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Fourth moments E[s_i^2 s_j^2] of the spatial sign vector in the eigenbasis.

    Returns the symmetric p x p table whose row sums reproduce the SSCM
    eigenvalues.  Rows and columns at zero shape eigenvalues are exactly zero.
    """
    _, table = _sign_moments(_as_spectrum(shape_spectrum), cfg or DEFAULT_QUADRATURE)
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
    _, cross = _sign_moments(_as_spectrum(shape_spectrum), cfg or DEFAULT_QUADRATURE)
    return _pairings(np.eye(cross.shape[0]), cross, cross)


@dataclass
class AsymptoticCov:
    """Asymptotic covariance of sqrt(n) vec(S_n) with its building blocks.

    ``w`` is the p^2 x p^2 covariance, ``gamma`` the uncentered sign moment
    matrix in the eigenbasis, ``eigenvectors`` the orthogonal matrix O
    that carries gamma into the data coordinates, and ``sscm_spectrum`` the
    population SSCM eigenvalues W is centred with, from the same quadrature.
    ``w`` is exactly symmetric and, as S_n is, exactly invariant under i <-> j
    and under k <-> l in its entry ((i, j), (k, l)).
    """

    gamma: np.ndarray
    w: np.ndarray
    eigenvectors: np.ndarray
    sscm_spectrum: Spectrum


def sscm_asymptotic_cov(
    eigenvectors, shape_spectrum, cfg: QuadratureConfig | None = None
) -> AsymptoticCov:
    """Asymptotic covariance of the sample SSCM at an elliptical population.

    W is ``(O kron O) (gamma - vec(D) vec(D)^T) (O kron O)^T``, D the diagonal
    matrix of SSCM eigenvalues and O the shape eigenvectors, built directly in
    basis O from the sign-flip pairing.  ``eigenvectors`` must be orthogonal
    to within 1e-10.
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
    delta, cross = _sign_moments(lam, cfg or DEFAULT_QUADRATURE)
    gamma = _pairings(np.eye(p), cross, cross)
    # vec(O D O^T) = V delta, so the centering joins the direct term
    w = _pairings(basis, cross, cross - np.outer(delta, delta))
    w += w.T  # exactly symmetric: both halves add the same two numbers
    w *= 0.5
    # S_n is symmetric, so W = K W = W K (K the commutation matrix): entry
    # ((i, j), (k, l)) is that of the index pairs sorted.  Each sorted row
    # gathers its sorted columns and is copied onto its transposed pair, so W
    # stays exactly symmetric.  One p^2 buffer serves every row: numpy's own
    # copies of overlapping slices raised peak RSS by ~10 MB in the spectra benchmark.
    idx = np.arange(p)
    sorted_pair = (np.minimum.outer(idx, idx) * p + np.maximum.outer(idx, idx)).ravel()
    row = np.empty(p * p)
    for i in range(p):
        for j in range(i, p):
            np.take(w[i * p + j], sorted_pair, out=row)
            w[i * p + j] = row
            w[j * p + i] = row
    return AsymptoticCov(
        gamma=gamma, w=w, eigenvectors=basis.copy(), sscm_spectrum=_descending(delta)
    )
