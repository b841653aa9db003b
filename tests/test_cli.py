import contextlib
import csv
import io
import json
import os
import subprocess
import sys
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


def test_map_invmap_round_trip():
    forward = json.loads(run_cli("map", "--lambdas", "0.5,0.3,0.2").stdout)
    back = json.loads(
        run_cli("invmap", "--deltas", ",".join(repr(v) for v in forward["delta"])).stdout
    )
    np.testing.assert_allclose(back["lambda"], [0.5, 0.3, 0.2], atol=1e-8)


def test_sscm_on_cross_dataset(cross_csv):
    proc = run_cli("sscm", cross_csv)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    np.testing.assert_allclose(payload["matrix"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    assert payload["metadata"]["n"] == 4
    assert payload["metadata"]["median"]["converged"] is True


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


def test_byte_identical_reruns():
    first = run_cli("map", "--lambdas", "0.62,0.23,0.15")
    second = run_cli("map", "--lambdas", "0.62,0.23,0.15")
    assert first.stdout == second.stdout


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
        (["kendall", "d.csv", "--tol", "1"], None, None),
        (["simulate", "--lambdas", "1", "--n", "2"], 1e-10, 100),
        (["shape", "d.csv"], 1e-9, 100),
        (["map", "--lambdas", "1"], 1e-9, 100),
        (["invmap", "--deltas", "1"], 1e-9, 100),
        (["asymcov", "--lambdas", "1"], 1e-9, 100),
    ],
)
def test_per_command_defaults(argv, tol, max_iter):
    if tol is None:  # kendall has no iteration, so no --tol, --max-iter or --rel-tol
        assert cli.main(argv) == 1
        return
    args = cli.build_parser().parse_args(argv)
    assert (args.tol, args.max_iter, args.rel_tol, args.output) == (tol, max_iter, None, "json")


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
