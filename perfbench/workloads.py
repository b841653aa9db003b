"""Seeded inputs, jobs and output checks for the benchmark workloads.

Every input comes from numpy's PCG64 generator seeded with the run's seed;
``signshape.oracle`` is not used, so a change to the oracle cannot change
the inputs.  The package only ever receives the generated arrays, or the
paths of CSV files written from them.

A job calls the package the way a user does: the public functions of
``eigenmoments``, ``inversion`` and ``estimators``, or ``cli.main(argv)``.
Each call goes through the module attribute at call time, so the tracer's
wrappers are picked up when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from signshape import cli
from signshape import eigenmoments as em
from signshape import estimators as est
from signshape import inversion as inv

# failures the package signals on purpose; any other exception is a harness
# error and makes the run incorrect
PROGRAM_ERRORS = (em.QuadratureError, inv.ConvergenceError)

# tolerances of the acceptance gates
UNIT_SUM_TOL = 1e-12  # gate 7: SSCM eigenvalues sum to one
ROW_SUM_TOL = 1e-8  # gate 5: fourth-moment rows reproduce the map
TRACE_TOL = 1e-12  # gate 12: trace of a sample SSCM
INVERSION_TOL = 1e-9  # default tol of shape_eigenvalues and of the CLI
EIG_FLOOR = -1e-12  # gate 12: smallest eigenvalue of a sample SSCM


@dataclass
class Job:
    """One closed-loop request: ``run`` calls the package, ``check`` judges its output.

    ``check`` returns failure labels (empty when the output is right).  ``n``
    is the number of observations behind the job, for the rank bound n - 1.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    n: int | None = None


# ---------------------------------------------------------------- inputs


def geometric_spectrum(p: int, ratio: float) -> np.ndarray:
    """Descending spectrum whose smallest/largest eigenvalue ratio is ``ratio``."""
    return ratio ** (np.arange(p) / (p - 1))


def dirichlet_spectrum(rng, p: int, alpha: float) -> np.ndarray:
    return np.sort(rng.dirichlet(np.full(p, alpha)))[::-1]


def typical_dirichlet_spectrum(rng, p: int, alpha: float) -> np.ndarray:
    """The draw of median eccentricity (smallest over largest eigenvalue) among 31.

    Quadrature cost grows with eccentricity, so taking the median draw keeps
    the cost of a job nearly the same from seed to seed while its spectrum
    still comes from the seed.
    """
    spectra = [dirichlet_spectrum(rng, p, alpha) for _ in range(31)]
    order = np.argsort([lam[-1] / lam[0] for lam in spectra], kind="stable")
    return spectra[order[15]]


def orthogonal(rng, p: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def elliptical_sample(rng, n: int, p: int) -> np.ndarray:
    """Multivariate t (3 degrees of freedom) with a Dirichlet(1) shape and a shifted center."""
    lam = dirichlet_spectrum(rng, p, 1.0)
    radial = np.sqrt(rng.chisquare(3, n) / 3.0)
    center = rng.standard_normal(p)
    return rng.standard_normal((n, p)) * np.sqrt(lam) / radial[:, None] + center


def write_csv(path: str, data: np.ndarray) -> str:
    header = ",".join(f"x{i}" for i in range(data.shape[1]))
    np.savetxt(path, data, delimiter=",", fmt="%.17g", header=header, comments="")
    return path


# ---------------------------------------------------------------- checks


def spectrum_defects(values, label: str) -> list:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < 0.0) or np.any(np.diff(v) > 0.0):
        return [f"check:{label}_not_ordered_simplex"]
    if abs(v.sum() - 1.0) > UNIT_SUM_TOL:
        return [f"check:{label}_unit_sum"]
    return []


def numerical_rank(eigvals: np.ndarray) -> int:
    """Rank with numpy's ``matrix_rank`` tolerance, from symmetric-matrix eigenvalues."""
    top = float(np.abs(eigvals).max())
    return int(np.count_nonzero(eigvals > top * eigvals.size * np.finfo(float).eps))


def sscm_matrix_defects(mat: np.ndarray, n: int) -> list:
    """Symmetric, trace at most one, non-negative definite, rank at most n - 1 when p > n."""
    if not np.all(np.isfinite(mat)) or not np.array_equal(mat, mat.T):
        return ["check:sscm_not_symmetric"]
    if np.trace(mat) > 1.0 + TRACE_TOL:
        return ["check:sscm_trace"]
    eig = np.linalg.eigvalsh(mat)
    if eig.min() < EIG_FLOOR:
        return ["check:sscm_negative_eigenvalue"]
    if mat.shape[0] > n and numerical_rank(eig) > n - 1:
        return ["check:sscm_rank"]
    return []


def shape_matrix_defects(mat: np.ndarray, n: int) -> list:
    """Symmetric, trace one, rank at most n - 1 when p > n."""
    if not np.all(np.isfinite(mat)) or not np.array_equal(mat, mat.T):
        return ["check:shape_not_symmetric"]
    if abs(np.trace(mat) - 1.0) > TRACE_TOL:
        return ["check:shape_trace"]
    if mat.shape[0] > n and numerical_rank(np.linalg.eigvalsh(mat)) > n - 1:
        return ["check:shape_rank"]
    return []


def w_defects(w: np.ndarray, p: int) -> list:
    """W is symmetric and annihilates vec(I): the trace of every sample SSCM is one."""
    if w.shape != (p * p, p * p) or not np.all(np.isfinite(w)) or not np.array_equal(w, w.T):
        return ["check:w_not_symmetric"]
    if np.abs(w @ np.eye(p).ravel()).max() > ROW_SUM_TOL:
        return ["check:w_trace_direction"]
    if np.diag(w).min() < EIG_FLOOR:
        return ["check:w_negative_variance"]
    return []


# ---------------------------------------------------------------- model-side jobs


def roundtrip_job(name: str, lam: np.ndarray) -> Job:
    def run():
        delta = em.sscm_eigenvalues(lam)
        return delta, inv.shape_eigenvalues(delta, tol=INVERSION_TOL)

    def check(out):
        delta, result = out
        if not result.converged:
            return ["not_converged"]
        bad = spectrum_defects(delta.values, "delta") + spectrum_defects(
            result.spectrum.values, "lambda"
        )
        if bad:
            return bad
        # recompute the residual rather than trusting the reported one
        resid = np.abs(em.sscm_eigenvalues(result.spectrum).values - delta.values).max()
        if not (result.residual <= INVERSION_TOL and resid <= INVERSION_TOL):
            return ["check:round_trip_residual"]
        return []

    return Job(name, run, check)


def fourth_moment_job(name: str, lam: np.ndarray) -> Job:
    def run():
        return em.sscm_eigenvalues(lam), em.sign_fourth_moments(lam)

    def check(out):
        delta, table = out
        bad = spectrum_defects(delta.values, "delta")
        if not np.all(np.isfinite(table)) or not np.array_equal(table, table.T):
            bad.append("check:fourth_not_symmetric")
        elif np.abs(table.sum(axis=1) - delta.values).max() > ROW_SUM_TOL:
            bad.append("check:fourth_row_sums")
        return bad

    return Job(name, run, check)


def asymcov_job(name: str, basis: np.ndarray, lam: np.ndarray) -> Job:
    def run():
        return em.sscm_asymptotic_cov(basis, lam)

    def check(out):
        return w_defects(out.w, lam.size)

    return Job(name, run, check)


def map_job(name: str, lam: np.ndarray) -> Job:
    def run():
        return em.sscm_eigenvalues(lam)

    def check(out):
        return spectrum_defects(out.values, "delta")

    return Job(name, run, check)


# ---------------------------------------------------------------- data-side jobs


def sscm_job(name: str, data: np.ndarray) -> Job:
    n = data.shape[0]

    def run():
        return est.sample_sscm(data)

    def check(out):
        if not out.median.converged:
            return ["not_converged"]
        return sscm_matrix_defects(out.matrix, n)

    return Job(name, run, check, n=n)


def shape_job(name: str, data: np.ndarray) -> Job:
    n = data.shape[0]

    def run():
        return inv.estimate_shape(est.sample_sscm(data), tol=INVERSION_TOL)

    def check(out):
        if not out.inversion.converged:
            return ["not_converged"]
        return spectrum_defects(out.inversion.spectrum.values, "lambda") + shape_matrix_defects(
            out.matrix, n
        )

    return Job(name, run, check, n=n)


# ---------------------------------------------------------------- CLI jobs


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


CLI_FIELDS = {
    "sscm": ("matrix", "metadata"),
    "kendall": ("matrix", "metadata"),
    "shape": ("matrix", "lambda", "delta", "converged", "iterations", "residual", "sscm"),
    "asymcov": ("lambda", "delta", "w", "gamma", "eigenvectors", "metadata"),
}


def cli_job(command: str, path: str, n: int, p: int) -> Job:
    def run():
        return run_cli([command, path])

    def check(out):
        if out.code != 0:
            return [f"exit_{out.code}"]
        try:
            payload = json.loads(out.stdout)
        except json.JSONDecodeError:
            return ["check:cli_json"]
        if payload.get("command") != command or any(f not in payload for f in CLI_FIELDS[command]):
            return ["check:cli_fields"]
        if command == "asymcov":
            return w_defects(np.asarray(payload["w"]), p)
        mat = np.asarray(payload["matrix"])
        if mat.shape != (p, p):
            return ["check:cli_shape"]
        if command == "shape":
            if not payload["converged"]:
                return ["not_converged"]
            return shape_matrix_defects(mat, n)
        if command == "sscm" and not payload["metadata"]["median"]["converged"]:
            return ["not_converged"]
        return sscm_matrix_defects(mat, n)

    return Job(f"cli {command} n={n} p={p}", run, check, n=n)


# ---------------------------------------------------------------- workloads

# Two workloads, so that each run can be long: this kind of shared machine
# changes speed by tens of percent for tens of seconds at a time, and a
# longer run averages over more of those spells.
#
# spectra: model-side jobs, no data.  Adaptive quadrature costs most at
# small p and high eccentricity; the p = 10^4 map and the p = 1000 fourth
# moments add the large-k quadrature.
ROUNDTRIP_DIMS = (2, 3, 5, 10, 30, 100)
GEOMETRIC_RATIOS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
DIRICHLET_ALPHAS = (0.2, 1.0, 5.0)
FOURTH_DIMS = (10, 30, 100)
ASYMCOV_DIMS = (10, 20, 30, 40)
LARGE_MAP_DRAWS = 8

# samples: estimators on data.  p > n in-process, where the p x p eigh and
# the rank decision dominate, and n >> p through the CLI on CSV files, where
# the spatial median, the sign GEMM, the Kendall pair loop and I/O dominate.
# Two samples per small p > n cell: the Newton iterations of a p > n
# inversion vary with the sample, and more jobs steady the job-time
# percentiles across seeds.
WIDE_CELLS = tuple((n, ratio * n) for n in (40, 50, 60, 70, 80, 90) for ratio in (3, 4, 5, 6))
WIDE_DRAWS_PER_CELL = 2
WIDE_LARGE = ((100, 1000),)
WIDE_SSCM_ONLY = ((200, 2000),)
TALL_SAMPLES = tuple((n, p) for n in (5000, 6000, 7000) for p in (5, 10, 15, 20)) + (
    (10000, 5), (10000, 10), (10000, 20), (14000, 5), (20000, 5),
)
KENDALL_SAMPLES = ((1000, 10), (1000, 30), (1000, 50), (1500, 20), (2000, 10), (2000, 30))
ASYMCOV_CLI_DIMS = (10, 20, 30)
ASYMCOV_CLI_N = 2000


def spectra_jobs(rng) -> list:
    jobs = []
    for p in ROUNDTRIP_DIMS:
        for ratio in GEOMETRIC_RATIOS:
            jobs.append(roundtrip_job(f"roundtrip p={p} geometric {ratio:g}", geometric_spectrum(p, ratio)))
        for alpha in DIRICHLET_ALPHAS:
            lam = typical_dirichlet_spectrum(rng, p, alpha)
            jobs.append(roundtrip_job(f"roundtrip p={p} dirichlet {alpha:g}", lam))
    for p in FOURTH_DIMS:
        for _ in range(2):
            jobs.append(fourth_moment_job(f"fourth p={p}", dirichlet_spectrum(rng, p, 1.0)))
    for p in ASYMCOV_DIMS:
        jobs.append(asymcov_job(f"asymcov p={p}", orthogonal(rng, p), dirichlet_spectrum(rng, p, 1.0)))
    for _ in range(LARGE_MAP_DRAWS):
        jobs.append(map_job("map p=10000", dirichlet_spectrum(rng, 10_000, 1.0)))
    jobs.append(fourth_moment_job("fourth p=1000", dirichlet_spectrum(rng, 1000, 1.0)))
    return jobs


def wide_jobs(rng) -> list:
    jobs = []
    samples = [(n, p, f" #{k}") for n, p in WIDE_CELLS for k in range(WIDE_DRAWS_PER_CELL)]
    for n, p, tag in samples + [(n, p, "") for n, p in WIDE_LARGE]:
        data = elliptical_sample(rng, n, p)
        jobs.append(sscm_job(f"sscm n={n} p={p}{tag}", data))
        jobs.append(shape_job(f"shape n={n} p={p}{tag}", data))
    for n, p in WIDE_SSCM_ONLY:
        jobs.append(sscm_job(f"sscm n={n} p={p}", elliptical_sample(rng, n, p)))
    return jobs


def tall_cli_jobs(rng, workdir: str) -> list:
    jobs = []
    for n, p in TALL_SAMPLES:
        path = write_csv(os.path.join(workdir, f"tall_{n}_{p}.csv"), elliptical_sample(rng, n, p))
        jobs.append(cli_job("sscm", path, n, p))
        jobs.append(cli_job("shape", path, n, p))
    for n, p in KENDALL_SAMPLES:
        path = write_csv(os.path.join(workdir, f"kendall_{n}_{p}.csv"), elliptical_sample(rng, n, p))
        jobs.append(cli_job("kendall", path, n, p))
    for p in ASYMCOV_CLI_DIMS:
        n = ASYMCOV_CLI_N
        path = write_csv(os.path.join(workdir, f"asymcov_{n}_{p}.csv"), elliptical_sample(rng, n, p))
        jobs.append(cli_job("asymcov", path, n, p))
    return jobs


def build_jobs(workload: str, seed: int, workdir: str) -> list:
    rng = np.random.Generator(np.random.PCG64(seed))
    if workload == "spectra":
        return spectra_jobs(rng)
    return wide_jobs(rng) + tall_cli_jobs(rng, workdir)


def warmup_job(workload: str, seed: int, workdir: str) -> Job:
    """A small job on the workload's main path, run once before anything is timed."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    if workload == "spectra":
        return roundtrip_job("warm-up roundtrip p=10", dirichlet_spectrum(rng, 10, 1.0))
    path = write_csv(os.path.join(workdir, "warmup.csv"), elliptical_sample(rng, 1000, 5))
    return cli_job("shape", path, 1000, 5)
