import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import signshape
from signshape import (
    Spectrum,
    cli,
    eigenmoments,
    estimate_shape,
    sample_sscm,
    sscm_asymptotic_cov,
    sscm_eigenvalues,
)


# the child interpreter must import the same signshape as this one
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(signshape.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "signshape", *args],
        capture_output=True,
        text=True,
        env=_ENV,
        **kwargs,
    )


@pytest.fixture
def cross_csv(tmp_path):
    path = tmp_path / "cross.csv"
    path.write_text("x,y\n1,0\n-1,0\n0,1\n0,-1\n")
    return str(path)


def test_map_two_dim_closed_form():
    proc = run_cli("map", "--lambdas", "0.9,0.1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    np.testing.assert_allclose(payload["delta"], [0.75, 0.25], atol=1e-10)
    assert payload["metadata"]["p"] == 2


def test_invmap_fixed_point():
    proc = run_cli("invmap", "--deltas", "0.5,0.5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["converged"] is True
    np.testing.assert_allclose(payload["lambda"], [0.5, 0.5], atol=1e-12)
    assert payload["stop"] == "converged"
    # the stop reason follows the relative residual
    keys = list(payload)
    assert keys.index("stop") == keys.index("relative_residual") + 1


def test_map_invmap_round_trip():
    forward = json.loads(run_cli("map", "--lambdas", "0.5,0.3,0.2").stdout)
    back = json.loads(
        run_cli("invmap", "--deltas", ",".join(repr(v) for v in forward["delta"])).stdout
    )
    np.testing.assert_allclose(back["lambda"], [0.5, 0.3, 0.2], atol=1e-8)
    # the stop is relative, and the targets are at most one
    assert back["residual"] <= back["relative_residual"] <= 1e-9


def test_sscm_on_cross_dataset(cross_csv):
    proc = run_cli("sscm", cross_csv)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    np.testing.assert_allclose(payload["matrix"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    assert payload["metadata"]["n"] == 4
    assert payload["metadata"]["median"]["converged"] is True


@pytest.mark.parametrize("command", ["sscm", "shape"])
def test_median_reports_data_point(tmp_path, command):
    # the third point minimizes the sum of distances; a Gaussian sample's
    # median is no observation
    rows = {
        "point": [[1.7, 0.0], [-1.7, 1.0], [0.0, 0.0], [1.0, -1.0]],
        "gaussian": np.random.default_rng(3).standard_normal((200, 3)).tolist(),
    }
    for name, expected in (("point", True), ("gaussian", False)):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows[name]))
        first = run_cli(command, str(path), "--no-header")
        assert first.returncode == 0, first.stderr
        assert run_cli(command, str(path), "--no-header").stdout == first.stdout
        median = json.loads(first.stdout)["metadata"]["median"]
        assert median["converged"] is True
        assert median["at_data_point"] is expected
        keys = list(median)
        assert keys.index("at_data_point") == keys.index("residual_gradient_norm") + 1


def test_sscm_at_the_end_of_the_double_range(tmp_path, capsys):
    # the two middle values of the first column sum past the largest double
    path = tmp_path / "huge.csv"
    path.write_text("1.7e308,0\n1.7e308,1\n")
    assert cli.main(["sscm", str(path), "--no-header"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["median"]["converged"] is True
    assert payload["metadata"]["center"] == [1.7e308, 0.5]


def test_no_header_flag(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1,0\n-1,0\n0,1\n0,-1\n")
    payload = json.loads(run_cli("sscm", str(path), "--no-header").stdout)
    assert payload["metadata"]["n"] == 4


def test_csv_output_round_trips(cross_csv):
    proc = run_cli("sscm", cross_csv, "--output", "csv")
    assert proc.returncode == 0
    rows = [[float(cell) for cell in line.split(",")] for line in proc.stdout.splitlines()]
    np.testing.assert_allclose(rows, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_kendall_two_points(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0,0\n1,0\n")
    payload = json.loads(run_cli("kendall", str(path), "--no-header").stdout)
    np.testing.assert_allclose(payload["matrix"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_kendall_reports_pair_counts(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,1\n2,0\n0,1\n0,1\n")
    out = run_cli("kendall", str(path), "--no-header")
    payload = json.loads(out.stdout)
    pairs = payload["metadata"]["pairs"]
    assert pairs["total"] == 6 and pairs["zero"] == 3 and pairs["direct"] >= 3
    assert payload["metadata"]["trace"] == pytest.approx(1.0 - pairs["zero"] / pairs["total"], abs=1e-15)
    assert run_cli("kendall", str(path), "--no-header").stdout == out.stdout


def test_byte_identical_reruns():
    first = run_cli("map", "--lambdas", "0.62,0.23,0.15")
    second = run_cli("map", "--lambdas", "0.62,0.23,0.15")
    assert first.stdout == second.stdout


def test_map_reports_the_node_count():
    payload = json.loads(run_cli("map", "--lambdas", "0.62,0.23,0.15").stdout)
    quad = eigenmoments._per_entry([0.62, 0.23, 0.15], None)
    assert payload["metadata"]["nodes"] == quad.nodes > 0
    assert payload["metadata"]["step"] == quad.step


def test_simulate_deterministic_with_seed():
    args = ("simulate", "--lambdas", "0.7,0.3", "--n", "60", "--replicates", "12", "--seed", "5")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["metadata"]["radial"] == "chi"
    assert np.asarray(payload["empirical_cov"]).shape == (4, 4)


def test_unsorted_spectrum_warns_and_sorts():
    proc = run_cli("map", "--lambdas", "0.1,0.9")
    assert proc.returncode == 0
    assert "reordered" in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["lambda"] == sorted(payload["lambda"], reverse=True)


def test_inline_spectrum_is_normalized():
    payload = json.loads(run_cli("map", "--lambdas", "9,1").stdout)
    np.testing.assert_allclose(payload["lambda"], [0.9, 0.1], atol=1e-15)


def test_asymcov_inline_matches_library():
    proc = run_cli("asymcov", "--lambdas", "0.5,0.5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    expected = [
        [0.125, 0.0, 0.0, -0.125],
        [0.0, 0.125, 0.125, 0.0],
        [0.0, 0.125, 0.125, 0.0],
        [-0.125, 0.0, 0.0, 0.125],
    ]
    np.testing.assert_allclose(payload["w"], expected, atol=1e-12)


def test_asymcov_from_data(tmp_path):
    rng = np.random.default_rng(77)
    data = rng.standard_normal((200, 2)) * np.array([2.0, 1.0])
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    proc = run_cli("asymcov", str(path), "--no-header")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert np.asarray(payload["w"]).shape == (4, 4)
    assert payload["metadata"]["n"] == 200


def test_asymcov_from_wide_data(tmp_path):
    # p > n: the shape estimate has only the support's eigenvectors, and the
    # command completes them to an orthogonal basis
    n, p = 6, 8
    data = np.random.default_rng(78).standard_normal((n, p)) * np.linspace(2.0, 0.5, p)
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    proc = run_cli("asymcov", str(path), "--no-header")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    vecs = np.asarray(payload["eigenvectors"])
    assert vecs.shape == (p, p)
    assert np.abs(vecs.T @ vecs - np.eye(p)).max() < 1e-12
    w = np.asarray(payload["w"])
    assert w.shape == (p * p, p * p)
    np.testing.assert_array_equal(w, w.T)
    assert np.abs(w @ np.eye(p).ravel()).max() < 1e-12
    assert np.count_nonzero(payload["lambda"]) <= n - 1


def test_asymcov_requires_exactly_one_source(tmp_path):
    assert run_cli("asymcov").returncode == 1
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    assert run_cli("asymcov", str(path), "--lambdas", "0.5,0.5").returncode == 1


def test_shape_equals_manual_composition(tmp_path):
    rng = np.random.default_rng(88)
    data = rng.standard_normal((150, 3)) * np.array([1.5, 1.0, 0.5])
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")

    shape_payload = json.loads(run_cli("shape", str(path)).stdout)

    # manual pipeline: sscm -> eigendecompose -> invmap -> reassemble
    sscm_payload = json.loads(run_cli("sscm", str(path)).stdout)
    mat = np.asarray(sscm_payload["matrix"])
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvals, eigvecs = eigvals[::-1].copy(), eigvecs[:, ::-1]
    deltas = Spectrum(np.clip(eigvals, 0.0, None)).values
    inv_payload = json.loads(
        run_cli("invmap", "--deltas", ",".join(repr(float(v)) for v in deltas)).stdout
    )
    lam = np.asarray(inv_payload["lambda"])
    manual = (eigvecs * lam) @ eigvecs.T
    manual = 0.5 * (manual + manual.T)

    np.testing.assert_allclose(np.asarray(shape_payload["matrix"]), manual, atol=1e-12)
    assert shape_payload["converged"] is True


@pytest.mark.parametrize(
    "content",
    [
        "h1,h2\n1,2\n3\n",  # ragged row
        "h1,h2\n1,2\nx,4\n",  # non-numeric cell
        "h1,h2\n",  # no data rows
    ],
)
def test_malformed_csv_exits_one(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    proc = run_cli("sscm", str(path))
    assert proc.returncode == 1
    assert proc.stderr.strip()
    assert str(path) in proc.stderr


def test_missing_file_exits_one():
    proc = run_cli("sscm", "/does/not/exist.csv")
    assert proc.returncode == 1
    assert "error" in proc.stderr
    assert "/does/not/exist.csv" in proc.stderr


def test_quoted_fields_are_read(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('"x","y"\n"1","0"\n"-1","0"\n"0","1"\n"0","-1"\n')
    proc = run_cli("sscm", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["metadata"]["n"] == 4
    np.testing.assert_allclose(payload["matrix"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_asymcov_output_is_exact(tmp_path):
    payload = json.loads(run_cli("asymcov", "--lambdas", "0.5,0.3,0.2").stdout)
    cov = sscm_asymptotic_cov(np.eye(3), [0.5, 0.3, 0.2])
    assert np.array_equal(payload["w"], cov.w)
    assert np.array_equal(payload["gamma"], cov.gamma)
    np.testing.assert_allclose(
        payload["delta"], sscm_eigenvalues([0.5, 0.3, 0.2]).values, rtol=0, atol=1e-15
    )
    # from data the basis is not the identity
    data = np.random.default_rng(32).standard_normal((60, 3)) * np.array([2.0, 1.0, 0.5])
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    shape = estimate_shape(sample_sscm(data, tol=1e-9, max_iter=100))
    cov = sscm_asymptotic_cov(shape.eigenvectors, shape.inversion.spectrum)
    assert not np.array_equal(cov.eigenvectors, np.eye(3))
    payload = json.loads(run_cli("asymcov", str(path), "--no-header").stdout)
    assert np.array_equal(payload["eigenvectors"], cov.eigenvectors)
    assert np.array_equal(payload["w"], cov.w)
    proc = run_cli("asymcov", str(path), "--no-header", "--output", "csv")
    rows = [[float(cell) for cell in line.split(",")] for line in proc.stdout.splitlines()]
    assert np.array_equal(rows, cov.w)


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308, 1.0, -3.0, 1e16, 2.0**53, 0.1]


@st.composite
def _float_arrays(draw):
    """1-d and 2-d float64 arrays drawn from a few values, so that most entries repeat."""
    pool = _EDGE_FLOATS + draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.integers(-(10**6), 10**6).map(float),
            min_size=1,
            max_size=4,
        )
    )
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6))
    return draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(pool)))


def _emitted(payload, csv_payload, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, csv_payload, fmt)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(_float_arrays(), _float_arrays())
def test_emit_matches_the_standard_writers(first, second):
    payload = {
        "command": "x",
        "w": first,
        "metadata": {"center": second, "n": 3, "values": [0.5, -0.0], "none": None},
        "counts": np.arange(3),
    }
    # the reference is the writer the CLI used before it formatted each distinct value once
    expected = json.dumps(payload, default=cli._jsonable, allow_nan=False) + "\n"
    assert _emitted(payload, first, "json") == expected
    reference = io.StringIO()
    csv.writer(reference, lineterminator="\n").writerows(np.atleast_2d(first).tolist())
    assert _emitted(payload, first, "csv") == reference.getvalue()


def test_emit_formats_repeated_rows_as_the_standard_writers():
    # rows 0 and 2 repeat; rows 1 and 3 differ only in the sign of a zero
    mat = np.array(
        [[0.1, -2.5, 1e-310], [0.0, 3.0, 0.0], [0.1, -2.5, 1e-310], [-0.0, 3.0, 0.0], [0.0, 3.0, 0.0]]
    )
    assert _emitted({"w": mat}, None, "json") == json.dumps({"w": mat.tolist()}) + "\n"
    reference = io.StringIO()
    csv.writer(reference, lineterminator="\n").writerows(mat.tolist())
    assert _emitted({}, mat, "csv") == reference.getvalue()


@pytest.mark.parametrize(
    "lambdas, reference",
    [
        # the last SSCM eigenvalue by a 40-digit trapezoid rule at steps 1/8 and 1/16,
        # which the map misses by 1.6e-4, 1.9e-9 and 2.1e-6
        ("0.6666666666666666,0.3333333333333333,6.66e-321", "5.197961567148459733781477e-318"),
        ("1,0.5,0.25,1e-315", "1.937715298816047688042906e-315"),
        ("0.5,0.3,0.2,1e-312,1e-318", "3.173731722964145306731301e-318"),
    ],
)
def test_map_error_estimate_covers_subnormal_rounding(lambdas, reference):
    payload = json.loads(run_cli("map", "--lambdas", lambdas).stdout)
    # a subnormal double cannot hold the reference, so compare in decimal
    error = abs(Decimal(payload["delta"][-1]) / Decimal(reference) - 1)
    assert error <= payload["metadata"]["error_estimate"]


def test_csv_output_is_exact(tmp_path):
    rng = np.random.default_rng(31)
    data = rng.standard_normal((40, 3)) * np.array([3.0, 1.0, 0.1])
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    proc = run_cli("sscm", str(path), "--no-header", "--output", "csv")
    assert proc.returncode == 0
    rows = [[float(cell) for cell in line.split(",")] for line in proc.stdout.splitlines()]
    assert np.array_equal(rows, sample_sscm(data, tol=1e-10, max_iter=1000).matrix)


def test_overflowing_spectrum_is_rescaled():
    proc = run_cli("map", "--lambdas", "1e308,1e308")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delta"] == [0.5, 0.5]


def test_asymcov_runs_one_quadrature(monkeypatch, capsys):
    calls = []
    original = eigenmoments._moments

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(eigenmoments, "_moments", counting)
    assert cli.main(["asymcov", "--lambdas", "0.5,0.3,0.2"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["command"] == "asymcov"


def test_asymcov_and_map_write_the_same_delta(capsys):
    # the table's quadrature sums the eigenvalue integrals by the map's formula
    def delta_text(argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        start = out.index('"delta": ')
        return out[start : out.index("]", start) + 1]

    rng = np.random.default_rng(41)
    for p in (3, 5, 8):
        lam = np.sort(rng.dirichlet(np.ones(p)))[::-1]
        text = ",".join(map(repr, lam.tolist()))
        assert delta_text(["asymcov", "--lambdas", text]) == delta_text(["map", "--lambdas", text])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_output_exits_one(monkeypatch, capsys, fmt):
    def non_finite(args):
        return {"command": "map", "delta": np.array([np.nan, 1.0])}, np.array([np.inf]), 0

    monkeypatch.setattr(cli, "_cmd_map", non_finite)
    assert cli.main(["map", "--lambdas", "0.5,0.5", "--output", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv, tol, max_iter",
    [
        (["sscm", "d.csv"], 1e-10, 1000),
        (["kendall", "d.csv"], None, None),
        (["simulate", "--lambdas", "1", "--n", "2"], 1e-10, None),
        (["shape", "d.csv"], 1e-9, 100),
        (["map", "--lambdas", "1"], None, None),
        (["invmap", "--deltas", "1"], 1e-9, 100),
        (["asymcov", "--lambdas", "1"], 1e-9, 100),
    ],
)
def test_per_command_defaults(argv, tol, max_iter):
    # each command takes only the flags it reads (None marks one it lacks)
    # and exits 1 on the others
    defaults = {k: v for k, v in {"tol": tol, "max_iter": max_iter}.items() if v is not None}
    if argv[0] in ("shape", "map", "invmap", "asymcov"):
        defaults["rel_tol"] = None
    args = vars(cli.build_parser().parse_args(argv))
    assert {k: args[k] for k in ("tol", "max_iter", "rel_tol") if k in args} == defaults
    assert args["output"] == "json"
    for dest in {"tol", "max_iter", "rel_tol"} - defaults.keys():
        assert cli.main(argv + ["--" + dest.replace("_", "-"), "1"]) == 1


_NO_MEMORY = "Unable to allocate 15.2 GiB for an array with shape (45150, 45150) and data type float64"


@pytest.mark.parametrize("message, line", [(_NO_MEMORY, _NO_MEMORY), ("", "MemoryError")])
def test_out_of_memory_exits_one(tmp_path, monkeypatch, capsys, message, line):
    # a wide CSV asks numpy for a p^4 W it cannot allocate
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sscm_asymptotic_cov", too_large)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.random.default_rng(30).standard_normal((8, 3)), delimiter=",")
    assert cli.main(["asymcov", str(path), "--no-header"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_invalid_spectrum_exits_one():
    assert run_cli("map", "--lambdas", "0.5,-0.5").returncode == 1
    assert run_cli("map", "--lambdas", "0.5,zebra").returncode == 1


def test_unknown_flag_exits_one():
    assert run_cli("map", "--lambdas", "0.5,0.5", "--bogus").returncode == 1


def test_nonconvergence_exits_two():
    proc = run_cli("invmap", "--deltas", "0.97,0.02,0.01", "--tol", "1e-14", "--max-iter", "1")
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["converged"] is False
    assert payload["stop"] == "max_iter"


def test_pin_fixtures_writes_valid_json(tmp_path):
    out = tmp_path / "pins.json"
    proc = run_cli("pin-fixtures", "--draws", "2000", "--out", str(out))
    assert proc.returncode == 0
    with open(out, encoding="utf-8") as handle:
        pins = json.load(handle)
    assert set(pins["scenarios"]) == {
        "sscm_eigenvalues_p2_090_010",
        "sscm_eigenvalues_p3_050_030_020",
        "fourth_moments_p2_090_010",
        "fourth_moments_p3_050_030_020",
    }


def test_shape_command_matches_library(cross_csv):
    payload = json.loads(run_cli("shape", cross_csv).stdout)
    est = sample_sscm(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    expected = estimate_shape(est)
    np.testing.assert_allclose(payload["matrix"], expected.matrix, atol=1e-14)
    assert payload["relative_residual"] == expected.inversion.relative_residual
    assert payload["stop"] == expected.inversion.stop == "converged"


@pytest.mark.parametrize("n, p", [(30, 80), (400, 4)])
def test_shape_reports_its_rank_decision(tmp_path, capsys, n, p):
    data = np.random.default_rng(89).standard_normal((n, p)) * np.linspace(2.0, 0.5, p)
    path = tmp_path / "data.csv"
    np.savetxt(path, data, delimiter=",")
    assert cli.main(["shape", str(path), "--no-header"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert list(meta).index("rank") == list(meta).index("median") + 1
    rank = meta["rank"]
    assert rank["relative_threshold"] == p * np.finfo(float).eps
    if p > n:
        # median-centred signs sum to zero: rank at most n - 1, from the Gram matrix
        assert rank["gram"] is True and rank["rank"] <= n - 1
    else:
        assert rank["gram"] is False and rank["rank"] == p
