"""Monte Carlo ground truth for the SSCM eigenvalue maps and asymptotics.

Everything here estimates by brute-force simulation what the quadrature
routines compute by integration, and never calls the quadrature code.  One
estimator averages w = (lam_i Y_i^2 / sum_k lam_k Y_k^2)_i, or w w^T, with
per-coordinate standard errors over spherical Y, and one sampler draws every
unit direction as a normalized standard Gaussian.  All randomness flows
through numpy's PCG64 generator (``numpy.random.default_rng``) with explicit
seeds; replicate streams are spawned from the master seed, so results are
reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from signshape.eigenmoments import _as_spectrum
from signshape.estimators import sample_sscm

__all__ = [
    "EllipticalSampler",
    "mc_sampling_distribution",
    "mc_sign_fourth_moments",
    "mc_sscm_eigenvalues",
    "pin_fixtures",
    "sample_spherical_direction",
]

_CHUNK = 1_000_000
_RADIAL_LAWS = ("chi", "constant", "coupled")


def _directions(rng, count: int, p: int) -> np.ndarray:
    """``count`` uniform draws on the unit sphere in R^p, as normalized standard Gaussians."""
    z = rng.standard_normal((count, p))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sample_spherical_direction(p: int, count: int, seed) -> np.ndarray:
    """Uniform draws on the unit sphere, as normalized standard Gaussians."""
    if p < 1:
        raise ValueError("dimension must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    return _directions(np.random.default_rng(seed), count, p)


def _mc_moments(shape_spectrum, draws: int, seed, radial: str, table: bool):
    """Mean and standard error of w, or of w w^T if ``table`` (see the module
    docstring), over ``draws`` spherical Y drawn _CHUNK rows at a time."""
    if draws < 1000:
        raise ValueError("draws must be at least 1000")
    if radial not in ("chi", "constant"):
        raise ValueError(f"radial must be 'chi' or 'constant', got {radial!r}")
    lam = _as_spectrum(shape_spectrum).values
    p = lam.size
    rng = np.random.default_rng(seed)
    acc = np.zeros((p, p) if table else p)
    acc_sq = np.zeros_like(acc)
    for start in range(0, draws, _CHUNK):
        take = min(_CHUNK, draws - start)
        y = _directions(rng, take, p) if radial == "constant" else rng.standard_normal((take, p))
        t = np.square(y) * lam
        w = t / t.sum(axis=1, keepdims=True)
        if table:
            acc += w.T @ w
            w2 = np.square(w)
            acc_sq += w2.T @ w2
        else:
            acc += w.sum(axis=0)
            acc_sq += np.square(w).sum(axis=0)
    mean = acc / draws
    variance = np.clip(acc_sq / draws - np.square(mean), 0.0, None)
    return mean, np.sqrt(variance / draws)


def mc_sscm_eigenvalues(shape_spectrum, draws: int = 1_000_000, seed=0, radial: str = "chi"):
    """Monte Carlo estimate of the SSCM eigenvalues for given shape eigenvalues.

    Averages lam_i Y_i^2 / sum_k lam_k Y_k^2 over ``draws`` spherical vectors
    Y.  ``radial="chi"`` takes Y standard normal; ``radial="constant"``
    normalizes Y to the sphere first -- the ratio is invariant to the radial
    law, so both must agree up to Monte Carlo noise.

    Returns ``(estimate, standard_error)`` as plain arrays in the input
    coordinate order (sampling noise may violate the descending-order
    invariant between near-tied coordinates, so no Spectrum is built).
    """
    return _mc_moments(shape_spectrum, draws, seed, radial, table=False)


def mc_sign_fourth_moments(shape_spectrum, draws: int = 1_000_000, seed=0, radial: str = "chi"):
    """Monte Carlo estimate of the fourth-moment table E[s_i^2 s_j^2].

    Same sampling scheme as :func:`mc_sscm_eigenvalues` with the
    squared-denominator integrand.  Returns ``(table, standard_errors)``.
    """
    return _mc_moments(shape_spectrum, draws, seed, radial, table=True)


@dataclass
class EllipticalSampler:
    """Row sampler for X = R * (U @ shape_root^T) + location.

    U is uniform on the unit sphere.  The radial law is one of

    - ``"chi"``: R ~ chi with p degrees of freedom, independent of U, which
      makes X Gaussian with covariance proportional to shape_root shape_root^T;
    - ``"constant"``: R = 1, the purely angular law on the shape ellipsoid;
    - ``"coupled"``: R = 1 + |U_1|, dependent on the direction.  X is then
      not elliptical, but spatial signs are unchanged by any positive radial
      factor, so sign-based statistics keep their elliptical-model values.
    """

    shape_root: np.ndarray
    radial: str = "chi"
    location: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        a = np.asarray(self.shape_root, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"shape_root must be a square matrix, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("shape_root must be finite")
        if not np.any(a != 0.0):
            raise ValueError("shape_root must be nonzero")
        if self.radial not in _RADIAL_LAWS:
            raise ValueError(f"radial must be one of {_RADIAL_LAWS}, got {self.radial!r}")
        self.shape_root = a
        p = a.shape[0]
        if self.location is None:
            self.location = np.zeros(p)
        else:
            loc = np.asarray(self.location, dtype=float)
            if loc.shape != (p,) or not np.all(np.isfinite(loc)):
                raise ValueError(f"location must be a finite vector of length {p}")
            self.location = loc

    @property
    def p(self) -> int:
        return self.shape_root.shape[0]

    def draw(self, count: int, rng) -> np.ndarray:
        """Sample ``count`` rows using the supplied numpy Generator."""
        if count < 1:
            raise ValueError("count must be at least 1")
        p = self.p
        u = _directions(rng, count, p)
        if self.radial == "chi":
            r = np.sqrt(rng.chisquare(p, size=count))
        elif self.radial == "constant":
            r = np.ones(count)
        else:
            r = 1.0 + np.abs(u[:, 0])
        return (r[:, None] * u) @ self.shape_root.T + self.location

    def sample(self, count: int, seed=None) -> np.ndarray:
        """Sample with a fresh generator seeded from ``seed`` (default: own seed)."""
        return self.draw(count, np.random.default_rng(self.seed if seed is None else seed))


def mc_sampling_distribution(
    sampler: EllipticalSampler,
    n: int,
    replicates: int,
    seed,
    median_tol: float = 1e-10,
    return_replicates: bool = False,
):
    """Sampling distribution of the SSCM over independent replicates.

    Draws ``replicates`` samples of size ``n``, computes the sample SSCM with
    the spatial median re-estimated each time, and returns the average matrix
    together with the empirical covariance of sqrt(n) * vec(S - mean).
    Replicate generators are spawned from ``seed``.  With
    ``return_replicates=True`` the (replicates, p*p) matrix of vectorized
    estimates is returned as a third element.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if replicates < 2:
        raise ValueError("replicates must be at least 2")
    p = sampler.p
    children = np.random.SeedSequence(seed).spawn(replicates)
    vecs = np.empty((replicates, p * p))
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        sample = sampler.draw(n, rng)
        est = sample_sscm(sample, tol=median_tol)
        vecs[r] = est.matrix.ravel()
    mean_vec = vecs.mean(axis=0)
    centered = np.sqrt(n) * (vecs - mean_vec)
    emp_cov = (centered.T @ centered) / (replicates - 1)
    mean_sscm = mean_vec.reshape(p, p)
    if return_replicates:
        return mean_sscm, emp_cov, vecs
    return mean_sscm, emp_cov


# Scenarios whose Monte Carlo values back the recorded test constants:
# (identifier, kind, shape eigenvalues, seed).
PIN_SCENARIOS = (
    ("sscm_eigenvalues_p2_090_010", "sscm_eigenvalues", (0.9, 0.1), 1730521),
    ("sscm_eigenvalues_p3_050_030_020", "sscm_eigenvalues", (0.5, 0.3, 0.2), 1730522),
    ("fourth_moments_p2_090_010", "fourth_moments", (0.9, 0.1), 1730523),
    ("fourth_moments_p3_050_030_020", "fourth_moments", (0.5, 0.3, 0.2), 1730524),
)


def pin_fixtures(draws: int = 10_000_000) -> dict:
    """Recompute the pinned oracle constants with their recorded seeds.

    Returns a JSON-ready dictionary keyed by scenario id, each entry holding
    the shape eigenvalues, draw count, seed, Monte Carlo estimate, and
    standard errors.
    """
    scenarios = {}
    for scenario_id, kind, lam, seed in PIN_SCENARIOS:
        if kind == "sscm_eigenvalues":
            est, se = mc_sscm_eigenvalues(lam, draws=draws, seed=seed)
        else:
            est, se = mc_sign_fourth_moments(lam, draws=draws, seed=seed)
        scenarios[scenario_id] = {
            "kind": kind,
            "lambda": list(map(float, lam)),
            "draws": draws,
            "seed": seed,
            "estimate": est.tolist(),
            "se": se.tolist(),
        }
    return {
        "generator": "numpy.random.default_rng (PCG64), standard_normal draws",
        "scenarios": scenarios,
    }
