"""Spans and counters recorded around the package's public functions, from outside it.

``Tracer.install`` replaces every module binding of each traced function,
including the names that ``signshape.cli`` and the package root import
directly, so nested calls such as ``sample_sscm -> spatial_median`` and
``estimate_shape -> shape_eigenvalues`` are seen.  A span records its name,
start, end, parent span and job id.  Spans stay in memory and are written
out once, when the run ends.  Layer names are module names.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

from signshape.eigenmoments import QuadratureError
from signshape.inversion import ConvergenceError

TRACED = {
    "eigenmoments": ("sscm_eigenvalues", "sign_fourth_moments", "sign_moment_matrix", "sscm_asymptotic_cov"),
    "inversion": ("shape_eigenvalues", "sscm_eigensystem", "estimate_shape"),
    "estimators": ("spatial_median", "sample_sscm", "sample_kendall_tau"),
    "cli": ("main",),
}


def _count_asymcov(c, tracer, result):
    p = result.eigenvectors.shape[0]
    # two dense (p^2 x p^2) products in the Kronecker sandwich
    c["eigenmoments.sscm_asymptotic_cov.computed_flops"] += 4 * p**6
    c["eigenmoments.sscm_asymptotic_cov.computed_bytes"] += result.gamma.nbytes + result.w.nbytes


def _count_inversion(c, tracer, result):
    c["inversion.shape_eigenvalues.newton_iters"] += result.iterations
    c["inversion.shape_eigenvalues.converged"] += bool(result.converged)


def _count_eigensystem(c, tracer, result):
    spectrum, _ = result
    # the rank bound n - 1 binds only at p > n
    if tracer.job_n is not None and spectrum.p > tracer.job_n:
        c["inversion.sscm_eigensystem.kept"] += int((spectrum.values > 0.0).sum())
        c["inversion.sscm_eigensystem.rank_bound"] += tracer.job_n - 1


def _count_median(c, tracer, result):
    c["estimators.spatial_median.iterations"] += result.iterations


def _count_sscm(c, tracer, result):
    n, p = result.n_used, result.matrix.shape[0]
    # the sign Gram product S^T S
    c["estimators.sample_sscm.computed_flops"] += 2 * n * p * p


def _count_kendall(c, tracer, result):
    n, p = result.n_used, result.matrix.shape[0]
    pairs = n * (n - 1) // 2
    c["estimators.sample_kendall_tau.pairs"] += pairs
    # one float64 difference row per pair, materialized by the pair loop
    c["estimators.sample_kendall_tau.computed_bytes"] += 8 * p * pairs


def _count_cli(c, tracer, result):
    c["cli.main.nonzero_exits"] += result != 0


# every counter the wrapper, the hooks above and the runner (output bytes) add to
COUNTS = (
    "eigenmoments.sscm_asymptotic_cov.computed_flops",
    "eigenmoments.sscm_asymptotic_cov.computed_bytes",
    "inversion.shape_eigenvalues.newton_iters",
    "inversion.shape_eigenvalues.converged",
    "inversion.sscm_eigensystem.kept",
    "inversion.sscm_eigensystem.rank_bound",
    "estimators.spatial_median.iterations",
    "estimators.sample_sscm.computed_flops",
    "estimators.sample_kendall_tau.pairs",
    "estimators.sample_kendall_tau.computed_bytes",
    "cli.main.nonzero_exits",
    "cli.main.output_bytes",
    "errors.QuadratureError",
    "errors.ConvergenceError",
    "trace.overhead_s",
)

COUNTERS = {
    "eigenmoments.sscm_asymptotic_cov": _count_asymcov,
    "inversion.shape_eigenvalues": _count_inversion,
    "inversion.sscm_eigensystem": _count_eigensystem,
    "estimators.spatial_median": _count_median,
    "estimators.sample_sscm": _count_sscm,
    "estimators.sample_kendall_tau": _count_kendall,
    "cli.main": _count_cli,
}


class Tracer:
    """Records spans and counters while installed, for the job named by ``start_job``."""

    def __init__(self):
        self.spans = []  # [name, job, parent index or -1, start, end]
        self.counts = defaultdict(float)
        self.job = None
        self.job_n = None
        self.pass_counts = []  # counters of each traced pass
        self.pass_self = []  # self time per span name of each traced pass
        self._stack = []
        self._patched = []
        self._errors_seen = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.job, parent, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except (QuadratureError, ConvergenceError) as exc:
                span[4] = time.perf_counter()
                # one exception passes through several spans; count it once
                if not any(exc is seen for seen in self._errors_seen):
                    self._errors_seen.append(exc)
                    self.counts[f"errors.{type(exc).__name__}"] += 1
                raise
            finally:
                span[4] = span[4] or time.perf_counter()
                self._stack.pop()
                self.counts[f"{name}.calls"] += 1
                if counter is not None and result is not None:
                    counter(self.counts, self, result)
                # the wrapper's own time, outside the span it records
                self.counts["trace.overhead_s"] += (span[3] - entered) + (time.perf_counter() - span[4])
            return result

        return traced

    def start_job(self, index: int, n):
        """Name the job that the next spans belong to: "<traced pass>:<job index>"."""
        self.job, self.job_n = f"{len(self.pass_counts)}:{index}", n
        self._errors_seen.clear()

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "signshape" or key.startswith("signshape.")]
        for short, names in TRACED.items():
            owner = sys.modules[f"signshape.{short}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def traced_pass(self):
        """Install the wrappers for one pass and keep that pass's counters and self times."""
        first = len(self.spans)
        self.install()
        try:
            yield
        finally:
            self.uninstall()
        self.pass_counts.append(dict(self.counts))
        self.counts = defaultdict(float)
        self.pass_self.append(self.self_times(first))

    def layer_metrics(self) -> dict:
        """Per-layer metrics, each the median over the traced passes."""

        def median(per_pass, key):
            return statistics.median(values.get(key, 0.0) for values in per_pass)

        out = {}
        for module, names in TRACED.items():
            for fname in names:
                out[f"{module}.{fname}.calls"] = median(self.pass_counts, f"{module}.{fname}.calls")
                out[f"{module}.{fname}.self_s"] = median(self.pass_self, f"{module}.{fname}")
        for key in COUNTS:
            out[key] = median(self.pass_counts, key)
        out["eigenmoments.quadrature_errors"] = out.pop("errors.QuadratureError")
        out["inversion.estimate_shape.convergence_errors"] = out.pop("errors.ConvergenceError")
        calls = out["inversion.shape_eigenvalues.calls"]
        converged = out.pop("inversion.shape_eigenvalues.converged")
        out["inversion.shape_eigenvalues.converged_ratio"] = converged / calls if calls else 0.0
        kept = out.pop("inversion.sscm_eigensystem.kept")
        bound = out.pop("inversion.sscm_eigensystem.rank_bound")
        out["inversion.sscm_eigensystem.kept_over_rank_bound"] = kept / bound if bound else 0.0
        return out

    def self_times(self, first: int = 0) -> dict:
        """Total self time per span name over spans[first:].

        Traced calls run on one thread and nest, so the part of a span that
        its children cover is the sum of their durations.
        """
        child_time = defaultdict(float)
        for name, _, parent, start, end in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index in range(first, len(self.spans)):
            name, _, _, start, end = self.spans[index]
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def write(self, path: str, origin: float, header: dict):
        """Write ``header`` and every span, with times in seconds from ``origin``."""
        spans = [
            {"name": n, "job": j, "parent": p, "start": s - origin, "end": e - origin}
            for n, j, p, s, e in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": spans}, handle)
