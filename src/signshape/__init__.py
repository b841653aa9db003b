"""Spatial sign covariance: robust scatter estimation in any dimension.

The sample spatial sign covariance matrix (SSCM) averages outer products of
the spatial signs of observations centered at the spatial median.  Its
population eigenvalues are a one-to-one, order-preserving function of the
shape-matrix eigenvalues of an elliptical model; this package evaluates that
map and its inverse through one-dimensional integral representations, builds
the asymptotic covariance of the sample SSCM, and validates everything
against a self-contained Monte Carlo oracle.  Works for p > n.
"""

from signshape.eigenmoments import (
    DEFAULT_QUADRATURE,
    AsymptoticCov,
    QuadratureConfig,
    QuadratureError,
    Spectrum,
    sign_fourth_moments,
    sign_moment_matrix,
    sscm_asymptotic_cov,
    sscm_eigenvalues,
)
from signshape.estimators import (
    SpatialMedian,
    SscmEstimate,
    sample_kendall_tau,
    sample_sscm,
    spatial_median,
    spatial_sign,
)
from signshape.inversion import (
    ConvergenceError,
    InversionResult,
    ShapeEstimate,
    estimate_shape,
    shape_eigenvalues,
    sscm_eigensystem,
)
from signshape.oracle import (
    EllipticalSampler,
    mc_sampling_distribution,
    mc_sign_fourth_moments,
    mc_sscm_eigenvalues,
    pin_fixtures,
    sample_spherical_direction,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCov",
    "ConvergenceError",
    "DEFAULT_QUADRATURE",
    "EllipticalSampler",
    "InversionResult",
    "QuadratureConfig",
    "QuadratureError",
    "ShapeEstimate",
    "SpatialMedian",
    "Spectrum",
    "SscmEstimate",
    "estimate_shape",
    "mc_sampling_distribution",
    "mc_sign_fourth_moments",
    "mc_sscm_eigenvalues",
    "pin_fixtures",
    "sample_kendall_tau",
    "sample_spherical_direction",
    "sample_sscm",
    "shape_eigenvalues",
    "sign_fourth_moments",
    "sign_moment_matrix",
    "spatial_median",
    "spatial_sign",
    "sscm_asymptotic_cov",
    "sscm_eigensystem",
    "sscm_eigenvalues",
    "__version__",
]
