"""Command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import algebra

from ahsnormal.cli import (
    EXIT_INVARIANT,
    EXIT_NONUNIQUE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None), out


def constant_curvature(n):
    eye = np.eye(n)
    R = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    return R.tolist()


# ---------------------------------------------------------------------------
# algebra-info and cohomology
# ---------------------------------------------------------------------------


def test_algebra_info_report(tmp_path):
    code, rep, _ = run_to_file(
        tmp_path, "info.json", ["algebra-info", "--kind", "grassmannian", "--p", "2", "--q", "3"]
    )
    assert code == EXIT_OK
    assert rep["dims"] == {"n_m1": 6, "n_0": 12, "n_1": 6, "total": 24}
    assert rep["center_dim"] == 1
    assert rep["matrix_rep_check"]["passed"]
    assert rep["matrix_rep_check"]["max_discrepancy"] == 0.0
    assert rep["normalizable"] is True
    assert rep["projective_type"] is False
    assert len(rep["labels"]) == 24


def test_algebra_info_stdout(capsys):
    assert main(["algebra-info", "--kind", "conformal", "--m", "3"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["dims"]["total"] == 10


def test_cohomology_report(tmp_path):
    code, rep, _ = run_to_file(
        tmp_path, "coh.json", ["cohomology", "--kind", "projective", "--q", "2"]
    )
    assert code == EXIT_OK
    assert rep["H11"] == 4
    assert rep["H21"] == 0
    assert rep["projective_type"] is True
    assert rep["complementarity"]["grade_-1"]["complementary"]
    assert rep["complementarity"]["grade_0"]["complementary"]


def test_invalid_parameters_exit_validation():
    assert main(["algebra-info", "--kind", "conformal", "--m", "2"]) == EXIT_VALIDATION
    assert main(["cohomology", "--kind", "grassmannian", "--p", "3", "--q", "1"]) == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_conformal_constant_curvature(tmp_path):
    src = tmp_path / "curv.json"
    src.write_text(json.dumps({"kind": "conformal", "riemann": constant_curvature(4)}))
    code, rep, out = run_to_file(
        tmp_path,
        "gamma.json",
        ["normalize", "--kind", "conformal", "--m", "4", "--input", str(src)],
    )
    assert code == EXIT_OK
    np.testing.assert_allclose(np.asarray(rep["gamma"]), -0.5 * np.eye(4), atol=1e-12)
    np.testing.assert_allclose(np.asarray(rep["gamma_oracle"]), -0.5 * np.eye(4), atol=1e-12)
    assert rep["max_abs_diff_closed_vs_oracle"] <= 1e-12
    assert rep["residual_trace_norm"] <= 1e-12
    assert rep["method"] == "closed_form"
    assert rep["oracle_method"] == "least_squares_trace_map"
    assert rep["convention"] == "kbar = k - delta(k)"
    assert rep["metadata"]["embedding_sign"] == -1.0
    # byte-identical rerun
    first = out.read_bytes()
    code2, _, out2 = run_to_file(
        tmp_path,
        "gamma2.json",
        ["normalize", "--kind", "conformal", "--m", "4", "--input", str(src)],
    )
    assert code2 == EXIT_OK
    assert out2.read_bytes() == first


def test_normalize_kappa0_input(tmp_path):
    from ahsnormal.normalization import deformation_delta_kappa0
    from ahsnormal.spencer import OneCochain
    from ahsnormal.testkit import random_gamma

    alg = algebra("lagrangian", m=3)
    rng = np.random.default_rng(901)
    gamma = random_gamma(alg, rng)
    k0 = deformation_delta_kappa0(alg, gamma)
    src = tmp_path / "k0.json"
    src.write_text(
        json.dumps({"kind": "lagrangian", "params": {"m": 3}, "kappa0": k0.data.tolist()})
    )
    code, rep, _ = run_to_file(
        tmp_path, "g.json", ["normalize", "--kind", "lagrangian", "--m", "3", "--input", str(src)]
    )
    assert code == EXIT_OK
    np.testing.assert_allclose(np.asarray(rep["gamma"]), gamma.data, atol=1e-11)
    assert rep["max_abs_diff_closed_vs_oracle"] <= 1e-11


def test_normalize_grassmannian_metadata(tmp_path):
    alg = algebra("grassmannian", p=2, q=2)
    n, n0, _ = alg.dims
    src = tmp_path / "k0.json"
    src.write_text(json.dumps({"kappa0": np.zeros((n, n, n0)).tolist()}))
    code, rep, _ = run_to_file(
        tmp_path,
        "g.json",
        ["normalize", "--kind", "grassmannian", "--p", "2", "--q", "2", "--input", str(src)],
    )
    assert code == EXIT_OK
    assert rep["metadata"]["gl_block_traces"]["closed_form_reads"] == "D"


def test_normalize_sl2_exits_nonunique(tmp_path):
    src = tmp_path / "k0.json"
    src.write_text(json.dumps({"kappa0": [[[0.0]]]}))
    code = main(
        ["normalize", "--kind", "grassmannian", "--p", "1", "--q", "1", "--input", str(src)]
    )
    assert code == EXIT_NONUNIQUE


def test_normalize_input_validation(tmp_path):
    # missing file
    code = main(["normalize", "--kind", "conformal", "--m", "3", "--input", str(tmp_path / "nope.json")])
    assert code == EXIT_VALIDATION
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["normalize", "--kind", "conformal", "--m", "3", "--input", str(bad)]) == EXIT_VALIDATION
    # both kappa0 and riemann
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"kappa0": [], "riemann": []}))
    assert main(["normalize", "--kind", "conformal", "--m", "3", "--input", str(both)]) == EXIT_VALIDATION
    # mismatched kind
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "projective", "riemann": constant_curvature(3)}))
    assert main(["normalize", "--kind", "conformal", "--m", "3", "--input", str(wrong)]) == EXIT_VALIDATION
    # wrong shape
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"riemann": constant_curvature(4)}))
    assert main(["normalize", "--kind", "conformal", "--m", "3", "--input", str(shape)]) == EXIT_VALIDATION
    # raw riemann input is only defined for the two raw-curvature kinds
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"riemann": constant_curvature(6)}))
    assert main(["normalize", "--kind", "lagrangian", "--m", "3", "--input", str(raw)]) == EXIT_VALIDATION



def test_normalize_rejects_deeply_nested_input(tmp_path, capsys):
    depth = 100_000
    deep = tmp_path / "deep.json"
    deep.write_text('{"kappa0": ' + "[" * depth + "]" * depth + "}")
    out = tmp_path / "n.json"
    argv = ["normalize", "--kind", "conformal", "--m", "3", "--input", str(deep)]
    assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert "nested too deeply" in capsys.readouterr().err

def test_normalize_rejects_non_finite_curvature(tmp_path):
    alg = algebra("projective", q=2)
    n, n0, _ = alg.dims
    argv = ["normalize", "--kind", "projective", "--q", "2"]
    for bad in (float("nan"), float("inf"), float("-inf")):
        k0 = np.zeros((n, n, n0))
        k0[0, 1, 2] = bad
        R = np.asarray(constant_curvature(n))
        R[1, 0, 1, 0] = bad
        for field, value in (("kappa0", k0), ("riemann", R)):
            src = tmp_path / f"{field}.json"
            src.write_text(json.dumps({field: value.tolist()}))  # bare NaN/Infinity tokens
            out = tmp_path / "out.json"
            code = main(argv + ["--input", str(src), "--output", str(out)])
            assert code == EXIT_VALIDATION, (field, bad)
            assert not out.exists()


def _all_strings(nested):
    if isinstance(nested, list):
        return [_all_strings(v) for v in nested]
    return str(nested)


def _with_leaf(nested, index, value):
    out = json.loads(json.dumps(nested))
    target = out
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = value
    return out


@pytest.mark.parametrize("case", ["all strings", "one string", "one boolean", "one huge integer"])
def test_normalize_rejects_non_numeric_curvature(tmp_path, case):
    # a JSON integer beyond the float range is not a usable number either
    alg = algebra("projective", q=2)
    n, n0, _ = alg.dims
    fields = {"kappa0": (np.zeros((n, n, n0)).tolist(), (0, 1, 2)),
              "riemann": (constant_curvature(n), (1, 0, 1, 0))}
    bad_leaf = {"one string": "0.5", "one boolean": True, "one huge integer": 10**400}
    for field, (value, index) in fields.items():
        if case == "all strings":
            value = _all_strings(value)
        else:
            value = _with_leaf(value, index, bad_leaf[case])
        src = tmp_path / f"{field}.json"
        src.write_text(json.dumps({field: value}))
        out = tmp_path / "out.json"
        code = main(["normalize", "--kind", "projective", "--q", "2", "--input", str(src),
                     "--output", str(out)])
        assert code == EXIT_VALIDATION, field
        assert not out.exists()


def test_non_finite_report_is_never_emitted(monkeypatch, capsys):
    from ahsnormal import cli

    monkeypatch.setattr(cli, "cmd_algebra_info", lambda args: ({"residual": float("nan")}, EXIT_OK))
    assert main(["algebra-info", "--kind", "conformal", "--m", "3"]) == EXIT_INVARIANT
    assert capsys.readouterr().out == ""


def test_bad_tolerance_rejected(tmp_path):
    src = tmp_path / "curv.json"
    src.write_text(json.dumps({"riemann": constant_curvature(2)}))
    commands = (
        ["verify", "--kind", "projective", "--q", "2", "--samples", "1"],
        ["normalize", "--kind", "projective", "--q", "2", "--input", str(src)],
    )
    for argv in commands:
        for tol in ("nan", "inf", "-inf", "0", "-1e-9"):
            out = tmp_path / "out.json"
            assert main(argv + [f"--tolerance={tol}", "--output", str(out)]) == EXIT_VALIDATION
            assert not out.exists(), (argv[0], tol)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_point_passes(tmp_path):
    code, rep, _ = run_to_file(
        tmp_path,
        "v.json",
        ["verify", "--kind", "lagrangian", "--m", "3", "--samples", "2"],
    )
    assert code == EXIT_OK
    assert rep["all_passed"]
    assert rep["seed"] == 42
    (point,) = rep["points"]
    names = [c["check"] for c in point["checks"]]
    assert "jacobi" in names and "normalization_round_trip" in names
    assert all(c["passed"] for c in point["checks"])


def test_verify_point_parameters_require_kind(tmp_path, capsys):
    for argv in (["verify", "--m", "4"], ["verify", "--check", "h11", "--p", "1", "--q", "2"]):
        out = tmp_path / "v.json"
        assert main(argv + ["--samples", "1", "--output", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert "--kind" in capsys.readouterr().err



def test_verify_h11_check_rejects_debug_mutate(tmp_path, capsys):
    out = tmp_path / "h.json"
    argv = ["verify", "--check", "h11", "--kind", "projective", "--debug-mutate"]
    assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--debug-mutate" in err and "--check h11" in err

def test_verify_rejects_samples_below_one(tmp_path):
    for samples in ("0", "-1"):
        out = tmp_path / "v.json"
        argv = ["verify", "--kind", "conformal", "--m", "3", f"--samples={samples}"]
        assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION
        assert not out.exists()


def test_verify_calls_automorphism_once_per_point(monkeypatch, tmp_path):
    from ahsnormal import cli

    calls = []
    real = cli.automorphism_residual

    def counting(alg, fc):
        calls.append((alg.kind, dict(alg.params)))
        return real(alg, fc)

    monkeypatch.setattr(cli, "automorphism_residual", counting)
    code, rep, _ = run_to_file(tmp_path, "v.json", ["verify", "--kind", "conformal", "--samples", "1"])
    assert code == EXIT_OK
    assert calls == [(p["kind"], p["params"]) for p in rep["points"]]
    assert len(calls) == 3


def test_verify_byte_identical_reruns(tmp_path):
    argv = ["verify", "--kind", "projective", "--samples", "2", "--seed", "7"]
    _, _, out1 = run_to_file(tmp_path, "v1.json", list(argv))
    _, _, out2 = run_to_file(tmp_path, "v2.json", list(argv))
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_debug_mutate_detects_corruption(tmp_path):
    code, rep, _ = run_to_file(
        tmp_path,
        "v.json",
        ["verify", "--kind", "conformal", "--m", "3", "--samples", "1", "--debug-mutate"],
    )
    assert code == EXIT_INVARIANT
    assert rep["mutated"]
    assert not rep["all_passed"]
    (point,) = rep["points"]
    checks = {c["check"]: c["passed"] for c in point["checks"]}
    assert checks["jacobi"] is False


def test_verify_h11_check(tmp_path):
    code, rep, _ = run_to_file(
        tmp_path, "h.json", ["verify", "--check", "h11", "--kind", "projective"]
    )
    assert code == EXIT_OK
    assert rep["check"] == "h11"
    for point in rep["points"]:
        assert point["nonzero"] is True
        assert point["projective_type"] is True
        assert point["H11"] > 0


def test_verify_sl2_degenerate_detection(tmp_path):
    code, rep, _ = run_to_file(
        tmp_path,
        "v.json",
        ["verify", "--kind", "grassmannian", "--p", "1", "--q", "1", "--samples", "1"],
    )
    assert code == EXIT_OK
    (point,) = rep["points"]
    checks = {c["check"]: c["passed"] for c in point["checks"]}
    assert checks["degenerate_detection"] is True
    assert "normalization_round_trip" not in checks


def test_unknown_kind_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["algebra-info", "--kind", "riemannian", "--m", "3"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ahsnormal", "algebra-info", "--kind", "projective", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["kind"] == "projective"
    assert rep["dims"]["total"] == 8
