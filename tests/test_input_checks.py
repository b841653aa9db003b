import numpy as np
import pytest

from signshape import (
    EllipticalSampler,
    QuadratureConfig,
    mc_sampling_distribution,
    sample_sscm,
    shape_eigenvalues,
    spatial_median,
    spatial_sign,
    sscm_asymptotic_cov,
    sscm_eigensystem,
)

_DATA = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
_SAMPLER = EllipticalSampler(shape_root=np.eye(2))

# each public input check, with the message it raises
CHECKS = {
    "rel_tol zero": (lambda: QuadratureConfig(rel_tol=0.0), "rel_tol"),
    "rel_tol nan": (lambda: QuadratureConfig(rel_tol=np.nan), "rel_tol"),
    "spatial_sign matrix": (lambda: spatial_sign(np.ones((2, 2))), "1-d"),
    "spatial_sign empty": (lambda: spatial_sign([]), "1-d"),
    "median tol": (lambda: spatial_median(_DATA, tol=0.0), "tol"),
    "median max_iter": (lambda: spatial_median(_DATA, max_iter=-1), "max_iter"),
    "sscm center": (lambda: sample_sscm(_DATA, center=[np.nan, 0.0]), "center"),
    "inversion max_iter": (lambda: shape_eigenvalues([0.6, 0.4], max_iter=-1), "max_iter"),
    "eigensystem non-square": (lambda: sscm_eigensystem(np.ones((2, 3))), "square"),
    "eigensystem non-finite": (lambda: sscm_eigensystem([[1.0, np.nan], [np.nan, 1.0]]), "finite"),
    "asymcov basis": (
        lambda: sscm_asymptotic_cov([[1.0, np.nan], [0.0, 1.0]], [0.6, 0.4]),
        "finite",
    ),
    "draw count": (lambda: _SAMPLER.draw(0, np.random.default_rng(0)), "count"),
    "replicate n": (lambda: mc_sampling_distribution(_SAMPLER, n=0, replicates=2, seed=0), "n must"),
    "shape_root": (lambda: EllipticalSampler(shape_root=[[1.0, np.inf], [0.0, 1.0]]), "finite"),
    "location shape": (
        lambda: EllipticalSampler(shape_root=np.eye(2), location=[0.0, 0.0, 0.0]),
        "location",
    ),
    "location non-finite": (
        lambda: EllipticalSampler(shape_root=np.eye(2), location=[0.0, np.nan]),
        "location",
    ),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
