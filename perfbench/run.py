#!/usr/bin/env python3
"""signshape benchmark runner.

    python3 perfbench/run.py --workload {spectra,samples} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there, with nothing installed.  One process drives the package as a
closed loop with one client: each job starts when the previous one ends.
The run builds the workload's fixed job list from the seed, then repeats the
list ("passes") for about ``--seconds`` seconds.  Program defaults stay as
users get them: ``SIGNSHAPE_THREADS`` is unset and BLAS threads are left
alone.

A job's time is its mean over the untraced passes.  A shared virtual
machine with two vCPUs can run interpreter-bound code up to twice as slowly
for spells of seconds to a minute; a run's mean follows the share of time
it spent in such spells, while a median of a few passes jumps from one
speed to the other, so the mean spreads less from run to run.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics of BENCHMARK.json:

    setup_s      median over fresh interpreters of import plus one warm-up job
    wall_s       sum of the job times: the job list finished once
    job_p50_ms   median job time
    job_tail_ms  job time at the highest percentile with ten jobs beyond it
    ok_frac      share of jobs with no failure (1 - fail_frac)
    peak_rss_mb  peak resident memory of this process

A job fails when it raises, returns ``converged=False``, exits the CLI with a
nonzero code, or fails its output check.  ``correct`` is false when a result
the package presents as a success fails its check, when a job raises
something other than the package's typed errors, or when a later pass does
not reproduce the first pass's outputs bit for bit.  ``attempted`` and
``failed`` count distinct jobs, so they depend on the seed alone.

With ``--trace 1`` the passes after the first are traced: they give the
per-layer metrics, must reproduce the first pass's outputs, and their spans
are written to ``perfbench/out/``.  ``trace.overhead_s`` is the time spent
in the wrappers outside the spans they record, measured there because the
difference between traced and untraced passes is far smaller than the
machine's own speed drift.  The line before the last is a report: machine
record, failures by kind, the tail percentile and per-job times.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 5


def import_package():
    """Import signshape from this checkout's sources, or exit without a result."""
    if not (SRC / "signshape" / "__init__.py").is_file():
        sys.exit(f"run.py: no package sources at {SRC / 'signshape'}; run from a signshape checkout")
    sys.path.insert(0, str(SRC))
    import signshape

    if Path(signshape.__file__).resolve().parent != (SRC / "signshape").resolve():
        sys.exit(f"run.py: imported signshape from {signshape.__file__}, not from {SRC}")
    return signshape


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def blas_threads():
    """OpenBLAS thread count as the library reports it, or None when not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(signshape_threads_env) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "SIGNSHAPE_THREADS": "unset" if signshape_threads_env is None else signshape_threads_env,
    }


# ---------------------------------------------------------------- outputs


def _feed(h, obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            if field.name != "stderr":  # CLI diagnostics, not output
                _feed(h, getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}: {obj}".encode())
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


class Run:
    """One benchmark run: the jobs, per-pass job times, outcomes and errors."""

    def __init__(self, jobs, program_errors):
        self.jobs = jobs
        self.program_errors = program_errors
        self.digests = None  # per job, from the first pass
        self.outcomes = None  # per job: None or a failure label, from the first pass
        self.errors = []  # reasons the run is not correct
        self.pass_times = {False: [], True: []}  # traced? -> per-pass lists of job times

    def run_pass(self, tracer=None):
        """Run every job once; the first pass judges outputs, later ones must repeat them."""
        first = self.digests is None
        times, digests, outcomes = [], [], []
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.start_job(index, job.n)
            start = time.perf_counter()
            try:
                out = job.run()
            except self.program_errors as exc:
                out = exc
            except Exception as exc:  # not a typed failure: record it and keep measuring
                out = exc
                if first:
                    self.errors.append(f"{job.name} raised {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - start)
            digests.append(digest(out))
            if tracer is not None and hasattr(out, "stdout"):
                tracer.counts["cli.main.output_bytes"] += len(out.stdout.encode())
            if first:
                outcomes.append(self.judge(job, out))
            del out
        traced = tracer is not None
        if first:
            self.digests, self.outcomes = digests, outcomes
        else:
            for job, old, new in zip(self.jobs, self.digests, digests):
                if old != new:
                    kind = "traced" if traced else "repeated"
                    self.errors.append(f"{job.name}: {kind} output differs from the first pass")
        self.pass_times[traced].append(times)

    def judge(self, job, out):
        """Failure label of one output, or None; runs with no tracer installed."""
        if isinstance(out, BaseException):
            return type(out).__name__
        labels = job.check(out)
        if not labels:
            return None
        if labels[0].startswith("check:"):
            # a result the package presented as a success is wrong
            self.errors.append(f"{job.name} failed {labels[0]}")
        return labels[0]

    def per_job_times(self) -> list:
        """Mean time of each job over the untraced passes."""
        return [statistics.fmean(ts) for ts in zip(*self.pass_times[False])]

    def failed_jobs(self) -> int:
        return sum(label is not None for label in self.outcomes)


def tail(values):
    """Highest percentile with at least ten values beyond it, as (value, percentile)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure(run: Run, seconds: float, tracer=None) -> None:
    """Repeat passes while at least half of the next one is expected to fit in ``seconds``.

    The first pass is untraced and judges the outputs.  With a tracer, every
    later pass is traced, and at least one runs.
    """
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        if tracer is not None and durations:
            with tracer.traced_pass():
                run.run_pass(tracer)
        else:
            run.run_pass()
        durations.append(time.perf_counter() - began)
        if tracer is not None and len(durations) < 2:
            continue
        if time.perf_counter() - start + 0.5 * statistics.median(durations) > seconds:
            return


def end_to_end(run: Run, setup: list) -> dict:
    tail_value, _ = tail(run.per_job_times())
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(run.per_job_times()),
        "job_p50_ms": 1e3 * statistics.median(run.per_job_times()),
        "job_tail_ms": 1e3 * tail_value,
        "ok_frac": 1.0 - run.failed_jobs() / len(run.jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: the package is imported; run one warm-up job."""
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        job = workloads.warmup_job(workload, seed, workdir)
        try:
            job.run()
        except workloads.PROGRAM_ERRORS:
            pass


def time_setup(workload: str, seed: int) -> list:
    """Seconds from a fresh interpreter through import and one warm-up job, per probe."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="signshape benchmark")
    parser.add_argument("--workload", required=True, choices=("spectra", "samples"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop("SIGNSHAPE_THREADS", None)
    import_package()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    wanted = load_metric_specs()["per_layer" if args.trace else "end_to_end"]

    import tracing
    import workloads

    machine = machine_record(threads_env)
    setup = [] if args.trace else time_setup(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        jobs = workloads.build_jobs(args.workload, args.seed, workdir)
        try:
            workloads.warmup_job(args.workload, args.seed, workdir).run()
        except workloads.PROGRAM_ERRORS:
            pass
        run = Run(jobs, workloads.PROGRAM_ERRORS)
        origin = time.perf_counter()
        measure(run, args.seconds, tracer)

    if tracer is not None:
        metrics = tracer.layer_metrics()
        header = {"workload": args.workload, "seed": args.seed, "machine": machine}
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"), origin, header)
    else:
        metrics = end_to_end(run, setup)
    missing = set(wanted) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")

    failures = {}
    for job, label in zip(run.jobs, run.outcomes):
        if label is not None:
            failures.setdefault(label, []).append(job.name)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "jobs": len(jobs),
        "passes": {"untraced": len(run.pass_times[False]), "traced": len(run.pass_times[True])},
        "pass_s": [round(sum(times), 3) for times in run.pass_times[False] + run.pass_times[True]],
        "job_tail_percentile": round(tail(run.per_job_times())[1], 2),
        "fail_frac": run.failed_jobs() / len(jobs),
        "failures": failures,
        "job_ms": [[job.name, round(1e3 * t, 3)] for job, t in zip(run.jobs, run.per_job_times())],
        "setup_probes_s": setup,
        "errors": run.errors,
    }
    result = {
        "correct": not run.errors,
        # each distinct job counts once: it is judged on the first pass, and later
        # passes must reproduce that output, so the counts follow from the seed
        # alone and not from how many passes fit in the time
        "attempted": len(jobs),
        "failed": run.failed_jobs(),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
