"""Batch command-line interface.

Commands
--------
sscm DATA.csv        sample spatial sign covariance matrix
kendall DATA.csv     spatial Kendall's tau matrix
shape DATA.csv       shape-matrix estimate reconstructed from the SSCM
map --lambdas ...    shape eigenvalues -> SSCM eigenvalues
invmap --deltas ...  SSCM eigenvalues -> shape eigenvalues
asymcov ...          asymptotic covariance of the sample SSCM
simulate ...         Monte Carlo sampling distribution of the SSCM
pin-fixtures         regenerate the recorded Monte Carlo oracle constants

Input CSV files hold one observation per row.  The first row is treated as a
header and skipped unless ``--no-header`` is given.  Results are written to
standard output as a single JSON object (default) or as a bare CSV matrix;
each float is written as the shortest text that round-trips exactly.  Exit
codes: 0 success, 1 invalid input or out of memory, 2 no convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Iterator

import numpy as np

from signshape.eigenmoments import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    QuadratureError,
    Spectrum,
    _descending,
    _per_entry,
    sscm_asymptotic_cov,
)
from signshape.estimators import sample_kendall_tau, sample_sscm
from signshape.inversion import (
    ConvergenceError,
    estimate_shape,
    shape_eigenvalues,
)
from signshape.oracle import EllipticalSampler, mc_sampling_distribution, pin_fixtures

__all__ = ["entrypoint", "main"]

_OK, _INVALID_INPUT, _NO_CONVERGENCE = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    # argument errors are invalid input, not the default argparse status 2
    def error(self, message):
        self.exit(_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _float_text(values: np.ndarray) -> np.ndarray:
    """The repr of each entry of a float64 array, as an object array of the same shape.

    repr runs once per distinct double, so writing a structured matrix such
    as W costs its distinct entries, not all of them.  Doubles are told apart
    by their bits, so -0.0 and 0.0 keep their own text.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot serialize non-finite values")
    # ravelled first: the shape of the inverse differs across numpy versions
    bits, inverse = np.unique(
        np.ascontiguousarray(values).reshape(-1).view(np.int64), return_inverse=True
    )
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return text[inverse].reshape(values.shape)


def _row_text(values: np.ndarray, sep: str) -> Iterator[str]:
    """Each row of a 2-d float64 array as its entries' repr joined by ``sep``.

    Bitwise-equal rows, such as rows (i, j) and (j, i) of W, share one row of
    texts, so only the distinct rows' entries are formatted; they are
    formatted, and checked finite, on the call.  Each row is joined as it is
    read: holding the joined text of every distinct row at once (9 MB for W
    at p = 30) raised the peak resident memory of a process writing W.
    """
    values = np.ascontiguousarray(values)
    if values.size == 0:
        return (sep.join(row) for row in _float_text(values).tolist())
    rows = values.view(np.dtype((np.void, values.itemsize * values.shape[1])))
    _, first, inverse = np.unique(rows.reshape(-1), return_index=True, return_inverse=True)
    text = _float_text(values[first])
    return (sep.join(text[k].tolist()) for k in inverse.reshape(-1).tolist())


def _json_parts(obj) -> list:
    """JSON text of ``obj``: strings, 1-d text arrays for its float64 vectors and
    iterators of row texts for its float64 matrices.

    Dicts are walked to reach the arrays; every other value, and each key,
    is written by ``json.dumps`` with the separators it uses by default.
    """
    if isinstance(obj, dict):
        parts = ["{"]
        for k, (key, value) in enumerate(obj.items()):
            parts.append(f"{', ' if k else ''}{json.dumps(key)}: ")
            parts += _json_parts(value)
        return parts + ["}"]
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2):
        return [_float_text(obj) if obj.ndim == 1 else _row_text(obj, ", ")]
    return [json.dumps(obj, default=_jsonable, allow_nan=False)]


def _emit(payload: dict, csv_payload, fmt: str) -> None:
    """Write the payload as ``json.dumps`` or ``csv.writer`` would, one write per row.

    Everything is formatted, and checked finite, before the first write.
    """
    out = sys.stdout
    if fmt == "csv":
        for row in _row_text(np.atleast_2d(np.asarray(csv_payload, dtype=float)), ","):
            out.write(row + "\n")
        return
    for part in _json_parts(payload):
        if isinstance(part, str):
            out.write(part)
        elif isinstance(part, np.ndarray):
            out.write("[" + ", ".join(part.tolist()) + "]")
        else:
            out.write("[")
            for i, row in enumerate(part):
                out.write((", [" if i else "[") + row + "]")
            out.write("]")
    out.write("\n")


def _read_csv(path: str, no_header: bool) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty input warns before it returns; it is reported below instead
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(
                path,
                delimiter=",",
                skiprows=0 if no_header else 1,
                ndmin=2,
                comments=None,
                quotechar='"',
                encoding="utf-8",
            )
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    return data


def _parse_spectrum(text: str, flag: str) -> Spectrum:
    try:
        values = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers") from None
    ordered = np.sort(values)[::-1]
    if not np.array_equal(ordered, values):
        print(f"warning: {flag} reordered to descending", file=sys.stderr)
    return Spectrum(ordered)


def _quad_cfg(args) -> QuadratureConfig:
    if args.rel_tol is None:
        return DEFAULT_QUADRATURE
    return QuadratureConfig(rel_tol=args.rel_tol)


def _median_metadata(est) -> dict | None:
    if est.median is None:
        return None
    return {
        "iterations": est.median.iterations,
        "converged": bool(est.median.converged),
        "residual_gradient_norm": est.median.residual_gradient_norm,
        "at_data_point": bool(est.median.at_data_point),
    }


def _rank_metadata(shape) -> dict:
    """The rank decision of ``sscm_eigensystem``: the nonzero eigenvalues, the
    threshold relative to the largest below which they were zeroed, and
    whether they came from the n x n Gram matrix."""
    p, r = shape.eigenvectors.shape
    return {
        "rank": int(np.count_nonzero(shape.sscm_spectrum.values)),
        "relative_threshold": p * float(np.finfo(float).eps),
        "gram": r < p,
    }


def _cmd_sscm(args):
    data = _read_csv(args.data, args.no_header)
    est = sample_sscm(data, tol=args.tol, max_iter=args.max_iter)
    status = _OK if est.median.converged else _NO_CONVERGENCE
    payload = {
        "command": "sscm",
        "matrix": est.matrix,
        "metadata": {
            "n": est.n_used,
            "p": est.matrix.shape[0],
            "kind": est.kind,
            "trace": float(np.trace(est.matrix)),
            "center": est.center,
            "median": _median_metadata(est),
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
    }
    return payload, est.matrix, status


def _cmd_kendall(args):
    data = _read_csv(args.data, args.no_header)
    est = sample_kendall_tau(data)
    payload = {
        "command": "kendall",
        "matrix": est.matrix,
        "metadata": {
            "n": est.n_used,
            "p": est.matrix.shape[0],
            "kind": est.kind,
            "trace": float(np.trace(est.matrix)),
            "center": None,
            "pairs": est.pairs._asdict(),
        },
    }
    return payload, est.matrix, _OK


def _shape_from_csv(args, cfg):
    """SSCM and shape estimate of a CSV file, with the exit status.

    A non-converged inversion warns and yields its last iterate with status 2.
    """
    est = sample_sscm(_read_csv(args.data, args.no_header), tol=args.tol, max_iter=args.max_iter)
    try:
        return est, estimate_shape(est, tol=args.tol, max_iter=args.max_iter, cfg=cfg), _OK
    except ConvergenceError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return est, exc.result, _NO_CONVERGENCE


def _cmd_shape(args):
    cfg = _quad_cfg(args)
    est, shape, status = _shape_from_csv(args, cfg)
    inv = shape.inversion
    payload = {
        "command": "shape",
        "matrix": shape.matrix,
        "lambda": inv.spectrum.values,
        "delta": shape.sscm_spectrum.values,
        "converged": bool(inv.converged),
        "iterations": inv.iterations,
        "residual": inv.residual,
        "relative_residual": inv.relative_residual,
        "stop": inv.stop,
        "sscm": est.matrix,
        "metadata": {
            "n": est.n_used,
            "p": est.matrix.shape[0],
            "trace": float(np.trace(shape.matrix)),
            "median": _median_metadata(est),
            "rank": _rank_metadata(shape),
            "tol": args.tol,
            "rel_tol": cfg.rel_tol,
            "max_iter": args.max_iter,
        },
    }
    return payload, shape.matrix, status


def _cmd_map(args):
    spectrum = _parse_spectrum(args.lambdas, "--lambdas")
    cfg = _quad_cfg(args)
    quad = _per_entry(spectrum, cfg)
    out = _descending(quad.values)
    payload = {
        "command": "map",
        "lambda": spectrum.values,
        "delta": out.values,
        "metadata": {
            "p": len(spectrum),
            "rel_tol": cfg.rel_tol,
            "step": quad.step,
            "nodes": quad.nodes,
            "error_estimate": quad.error_estimate,
        },
    }
    return payload, np.asarray(out), _OK


def _cmd_invmap(args):
    spectrum = _parse_spectrum(args.deltas, "--deltas")
    cfg = _quad_cfg(args)
    result = shape_eigenvalues(spectrum, tol=args.tol, max_iter=args.max_iter, cfg=cfg)
    payload = {
        "command": "invmap",
        "delta": spectrum.values,
        "lambda": result.spectrum.values,
        "converged": bool(result.converged),
        "iterations": result.iterations,
        "residual": result.residual,
        "relative_residual": result.relative_residual,
        "stop": result.stop,
        "metadata": {
            "p": len(spectrum),
            "tol": args.tol,
            "rel_tol": cfg.rel_tol,
            "max_iter": args.max_iter,
        },
    }
    return payload, np.asarray(result.spectrum), _OK if result.converged else _NO_CONVERGENCE


def _complete_basis(vecs: np.ndarray) -> np.ndarray:
    """An orthogonal p x p matrix whose leading columns are the orthonormal ``vecs``.

    A shape estimate at n < p carries only the eigenvectors of its support.
    W needs a full basis but not a particular completion: its fourth moments
    vanish at zero eigenvalues.
    """
    basis, _ = np.linalg.qr(vecs, mode="complete")
    basis[:, : vecs.shape[1]] = vecs
    return basis


def _cmd_asymcov(args):
    cfg = _quad_cfg(args)
    if (args.data is None) == (args.lambdas is None):
        raise ValueError("asymcov needs either a data file or --lambdas, not both")
    if args.lambdas is not None:
        spectrum = _parse_spectrum(args.lambdas, "--lambdas")
        basis = np.eye(len(spectrum))
        source = "inline"
        n = None
        status = _OK
    else:
        est, shape, status = _shape_from_csv(args, cfg)
        spectrum = shape.inversion.spectrum
        basis = _complete_basis(shape.eigenvectors)
        source = args.data
        n = est.n_used
    cov = sscm_asymptotic_cov(basis, spectrum, cfg)
    payload = {
        "command": "asymcov",
        "lambda": spectrum.values,
        "delta": cov.sscm_spectrum.values,
        "w": cov.w,
        "gamma": cov.gamma,
        "eigenvectors": cov.eigenvectors,
        "metadata": {
            "p": len(spectrum),
            "n": n,
            "source": source,
            "rel_tol": cfg.rel_tol,
        },
    }
    return payload, cov.w, status


def _cmd_simulate(args):
    spectrum = _parse_spectrum(args.lambdas, "--lambdas")
    sampler = EllipticalSampler(
        shape_root=np.diag(np.sqrt(np.asarray(spectrum))),
        radial=args.radial,
        seed=args.seed,
    )
    mean_sscm, emp_cov = mc_sampling_distribution(
        sampler, n=args.n, replicates=args.replicates, seed=args.seed, median_tol=args.tol
    )
    eigvals = np.sort(np.linalg.eigvalsh(mean_sscm))[::-1]
    payload = {
        "command": "simulate",
        "mean_sscm": mean_sscm,
        "mean_eigenvalues": eigvals,
        "empirical_cov": emp_cov,
        "metadata": {
            "p": mean_sscm.shape[0],
            "n": args.n,
            "replicates": args.replicates,
            "seed": args.seed,
            "radial": args.radial,
            "lambda": spectrum.values,
        },
    }
    return payload, mean_sscm, _OK


def _cmd_pin_fixtures(args):
    fixtures = pin_fixtures(draws=args.draws)
    text = json.dumps(fixtures, indent=2)
    if args.out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return None, None, _OK


def _add_data(sub, nargs=None):
    sub.add_argument("data", nargs=nargs, help="CSV file, observations in rows")
    sub.add_argument(
        "--no-header", action="store_true", help="treat the first row as data, not a header"
    )


_MEDIAN_TOL = "spatial median gradient tolerance"
_INVERSION_TOL = "Newton inversion tolerance on max |delta(lambda) / delta - 1|"


def _add_iteration(sub, tol=1e-9, max_iter=100, help=f"{_MEDIAN_TOL}; {_INVERSION_TOL}"):
    sub.add_argument("--tol", type=float, default=tol, help=help)
    sub.add_argument("--max-iter", type=int, default=max_iter, help="iteration cap")


def _add_quadrature(sub):
    sub.add_argument("--rel-tol", type=float, default=None, help="quadrature relative tolerance")


def build_parser() -> _Parser:
    parser = _Parser(prog="signshape", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        sub = commands.add_parser(name, help=help)
        sub.add_argument("--output", choices=("json", "csv"), default="json")
        sub.set_defaults(func=func)
        return sub

    sub = command("sscm", _cmd_sscm, "sample spatial sign covariance matrix")
    _add_data(sub)
    _add_iteration(sub, tol=1e-10, max_iter=1000, help=_MEDIAN_TOL)

    sub = command("kendall", _cmd_kendall, "spatial Kendall's tau matrix")
    _add_data(sub)

    sub = command("shape", _cmd_shape, "shape matrix estimated from the SSCM")
    _add_data(sub)
    _add_iteration(sub)
    _add_quadrature(sub)

    sub = command("map", _cmd_map, "shape eigenvalues to SSCM eigenvalues")
    sub.add_argument("--lambdas", required=True, help="comma-separated shape eigenvalues")
    _add_quadrature(sub)

    sub = command("invmap", _cmd_invmap, "SSCM eigenvalues to shape eigenvalues")
    sub.add_argument("--deltas", required=True, help="comma-separated SSCM eigenvalues")
    _add_iteration(sub, help=_INVERSION_TOL)
    _add_quadrature(sub)

    sub = command("asymcov", _cmd_asymcov, "asymptotic covariance of the sample SSCM")
    _add_data(sub, nargs="?")
    sub.add_argument("--lambdas", default=None, help="comma-separated shape eigenvalues")
    _add_iteration(sub)
    _add_quadrature(sub)

    sub = command("simulate", _cmd_simulate, "Monte Carlo sampling distribution of the SSCM")
    sub.add_argument("--lambdas", required=True, help="comma-separated shape eigenvalues")
    sub.add_argument("--n", type=int, required=True, help="observations per replicate")
    sub.add_argument("--replicates", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--radial", choices=("chi", "constant", "coupled"), default="chi")
    sub.add_argument("--tol", type=float, default=1e-10, help=_MEDIAN_TOL)

    sub = commands.add_parser("pin-fixtures", help="regenerate Monte Carlo oracle constants")
    sub.add_argument("--draws", type=int, default=10_000_000)
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    sub.set_defaults(func=_cmd_pin_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, csv_payload, status = args.func(args)
        if payload is not None:
            _emit(payload, csv_payload, args.output)
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _INVALID_INPUT
    except (QuadratureError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NO_CONVERGENCE
    return status


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
