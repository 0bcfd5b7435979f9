"""Command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import LARGEST, VERIFY_GRID, algebra, grid_id

from ahsnormal import cli, graded_algebra, spencer
from ahsnormal.cli import (
    EXIT_INVARIANT,
    EXIT_NONUNIQUE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from ahsnormal.spencer import OneCochain


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


def test_oversized_parameters_exit_validation(capsys):
    argv = ["algebra-info", "--kind", "grassmannian", "--p", "300", "--q", "300"]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1 GiB" in captured.err and "dim g = 359999" in captured.err


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



@pytest.mark.parametrize("params", [[1, 2], 5, None, [["m", 3]], "m=3"], ids=repr)
def test_normalize_rejects_params_that_are_not_an_object(tmp_path, capsys, params):
    alg = algebra("conformal", m=3)
    n, n0, _ = alg.dims
    src = tmp_path / "k0.json"
    src.write_text(json.dumps({"params": params, "kappa0": np.zeros((n, n, n0)).tolist()}))
    argv = ["normalize", "--kind", "conformal", "--m", "3", "--input", str(src)]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "params" in err


@pytest.mark.parametrize(
    "kind,flags,params,bad",
    [
        ("grassmannian", ["--p", "1", "--q", "2"], {"p": True, "q": 2}, "'p'"),
        ("conformal", ["--m", "3"], {"m": 3.0}, "'m'"),
    ],
    ids=["true-for-1", "float-3.0"],
)
def test_normalize_rejects_non_integer_file_params(tmp_path, capsys, kind, flags, params, bad):
    # JSON true == 1 and 3.0 == 3, but build_algebra refuses both as parameters
    n, n0, _ = algebra(kind, **{k: int(v) for k, v in params.items()}).dims
    src = tmp_path / "k0.json"
    src.write_text(json.dumps({"params": params, "kappa0": np.zeros((n, n, n0)).tolist()}))
    assert main(["normalize", "--kind", kind, *flags, "--input", str(src)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"parameter {bad} must be an integer" in err


def test_normalize_factors_the_trace_map_once_per_algebra(trace_map_builds, tmp_path):
    from ahsnormal.testkit import round_trip_sample

    _, k0 = round_trip_sample(algebra("lagrangian", m=3), np.random.default_rng(0))
    src = tmp_path / "planted.json"
    src.write_text(json.dumps({"kappa0": k0.data.tolist()}))
    argv = ["normalize", "--kind", "lagrangian", "--m", "3", "--input", str(src)]
    reports = [run_to_file(tmp_path, f"g{i}.json", argv) for i in range(20)]
    assert [alg.kind for alg in trace_map_builds] == ["lagrangian"]
    assert all(code == EXIT_OK for code, _, _ in reports)
    cold = reports[0][2].read_bytes()
    assert all(out.read_bytes() == cold for _, _, out in reports)


@pytest.mark.parametrize("kind,params", LARGEST, ids=grid_id)
def test_normalize_makes_no_dense_block_of_the_structure_tensor(tmp_path, kind, params):
    # every reader on the normalize path takes C's sector nonzeros, so a
    # request on a freshly built algebra leaves no ("C", gx, gy) part behind
    from ahsnormal.testkit import round_trip_sample

    _, k0 = round_trip_sample(algebra(kind, **params), np.random.default_rng(0))
    src = tmp_path / "planted.json"
    src.write_text(json.dumps({"kappa0": k0.data.tolist()}))
    flags = [x for name, value in params.items() for x in (f"--{name}", str(value))]
    graded_algebra._shared.cache_clear()
    code, _, _ = run_to_file(tmp_path, "g.json",
                             ["normalize", "--kind", kind, *flags, "--input", str(src)])
    assert code == EXIT_OK
    parts = graded_algebra.build_algebra(kind, **params).parts
    assert parts and not [key for key in parts if key[0] == "C"]


def test_unwritable_output_exits_validation(tmp_path, capsys, monkeypatch):
    # a directory, a file in a directory that does not exist, and an empty path
    for target in (tmp_path, tmp_path / "missing" / "report.json", ""):
        argv = ["algebra-info", "--kind", "conformal", "--m", "3", "--output", str(target)]
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()
    # refused before the command runs: verify never reaches a point
    from ahsnormal import cli

    def no_point(*args):
        raise AssertionError("verify ran a point before refusing --output")

    monkeypatch.setattr(cli, "_verify_point", no_point)
    for target in (tmp_path, tmp_path / "missing" / "report.json", ""):
        argv = ["verify", "--kind", "lagrangian", "--m", "6", "--output", str(target)]
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write --output:") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the Linux /dev/full device")
def test_output_failure_at_write_exits_validation(capsys):
    # /dev/full passes the up-front check; only the write fails (ENOSPC)
    argv = ["algebra-info", "--kind", "conformal", "--m", "3", "--output", "/dev/full"]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write --output:") and err.count("\n") == 1


def test_normalize_rejects_deeply_nested_input(tmp_path, capsys):
    depth = 100_000
    deep = tmp_path / "deep.json"
    deep.write_text('{"kappa0": ' + "[" * depth + "]" * depth + "}")
    out = tmp_path / "n.json"
    argv = ["normalize", "--kind", "conformal", "--m", "3", "--input", str(deep)]
    assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    assert "nested too deeply" in capsys.readouterr().err


def test_point_beyond_memory_exits_validation(monkeypatch, capsys):
    # lagrangian m = 12 passes MAX_DIM, but its dense d needs about 40 GiB
    def refuse(*_):
        raise MemoryError

    monkeypatch.setattr(spencer, "d_matrix", refuse)
    assert main(["cohomology", "--kind", "projective", "--q", "2"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_refused_small_page_mapping_exits_with_the_memory_line(monkeypatch, capsys):
    # mmap reports a refused request as OSError(ENOMEM), not MemoryError
    def refuse(*_):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(graded_algebra, "mmap", types.SimpleNamespace(mmap=refuse))
    assert main(["verify", "--kind", "lagrangian", "--m", "6"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the requested point exceeds the memory available\n"


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


@pytest.mark.parametrize(
    "kind,params,field",
    [("projective", {"q": 2}, "kappa0"), ("conformal", {"m": 3}, "riemann")],
    ids=["projective-kappa0", "conformal-riemann"],
)
def test_normalize_refuses_input_that_overflows(tmp_path, capsys, kind, params, field):
    # every entry is a finite JSON number, but alternating the argument pair
    # (x_0, x_1) computes 1e308 - (-1e308), beyond the float64 range
    alg = algebra(kind, **params)
    n, n0, _ = alg.dims
    data = np.zeros((n, n, n0) if field == "kappa0" else (n, n, n, n))
    if field == "kappa0":
        data[0, 1], data[1, 0] = 1e308, -1e308
    else:
        data[..., 0, 1], data[..., 1, 0] = 1e308, -1e308
    src = tmp_path / "in.json"
    src.write_text(json.dumps({field: data.tolist()}))
    out = tmp_path / "out.json"
    flags = [f"--{k}={v}" for k, v in params.items()]
    code = main(["normalize", "--kind", kind, *flags, "--input", str(src), "--output", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: input overflows float64 arithmetic\n")
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


# ---------------------------------------------------------------------------
# decoding the curvature file: orjson where it agrees with json, json elsewhere
# ---------------------------------------------------------------------------

BIG = 2**64  # past 64 bits, where orjson returns a float and json an int
DECODE_POINTS = {
    "conformal": ("conformal", {"m": 3}),
    "grassmannian": ("grassmannian", {"p": 1, "q": 2}),
    "projective": ("projective", {"q": 2}),
    "lagrangian": ("lagrangian", {"m": 3}),
    "spinorial": ("spinorial", {"m": 3}),
}
LEAF = 12345.0  # one kappa0 entry, replaced by a token in the file text


def _flags(kind, params):
    return ["--kind", kind, *(f"--{k}={v}" for k, v in params.items())]


def _planted(kind, params, with_leaf=False):
    from ahsnormal.testkit import round_trip_sample

    _, k0 = round_trip_sample(algebra(kind, **params), np.random.default_rng(3))
    kappa0 = k0.data.tolist()
    if with_leaf:
        kappa0[0][1][0] = LEAF
    return {"kind": kind, "params": params, "kappa0": kappa0}


def _nested(depth):
    return "[" * depth + "]" * depth


def _decode_corpus():
    """(id, flags, file bytes): every case json and orjson might read apart."""
    cases = []
    for name, (kind, params) in DECODE_POINTS.items():
        cases.append((f"valid-{name}", _flags(kind, params), json.dumps(_planted(kind, params))))
    n = algebra("projective", q=2).dims[0]
    riemann = {"kind": "projective", "params": {"q": 2}, "riemann": constant_curvature(n)}
    cases.append(("valid-riemann", _flags("projective", {"q": 2}), json.dumps(riemann)))

    kind, params = DECODE_POINTS["lagrangian"]
    flags = _flags(kind, params)
    leafy = json.dumps(_planted(kind, params, with_leaf=True))
    for token in ("NaN", "Infinity", "-Infinity", "1e400", "-0.0", "5e-324", "7",
                  str(BIG), str(-BIG), str(2**64 - 1), str(-(2**63) - 1), "1" + "0" * 400,
                  "true", '"0.5"', "null", "[1.0]", "{}", f'{{"x": {BIG}}}', f"[{BIG}, 1]"):
        cases.append((f"leaf-{token[:24]}", flags, leafy.replace(repr(LEAF), token, 1)))
    valid = _planted(kind, params)
    ints = json.loads(json.dumps(valid))
    ints["kappa0"] = np.zeros(np.shape(valid["kappa0"]), dtype=int).tolist()
    cases.append(("int-leaves", flags, json.dumps(ints)))
    ragged = json.loads(json.dumps(valid))
    ragged["kappa0"][0][1] = ragged["kappa0"][0][1][:-1]
    cases.append(("ragged", flags, json.dumps(ragged)))
    body = json.dumps(valid["kappa0"])
    for key, value in (("params", f'{{"m": {BIG}}}'), ("params", f'{{"m": [{BIG}]}}'),
                       ("params", '{"m": 3.0}'), ("params", f'{{"m": 3, "x": {BIG}}}'),
                       ("kind", str(BIG)), ("kind", f"[{BIG}]"), ("kind", '"\\ud800"'),
                       ("kind", '"lagrangian\\u0000"'), ("kind", '"projective"')):
        cases.append((f"{key}-{value[:24]}", flags, f'{{"{key}": {value}, "kappa0": {body}}}'))
    text = json.dumps(valid)
    cases += [
        ("bom", flags, "\ufeff" + text),
        ("trailing-garbage", flags, text + " x"),
        ("trailing-bracket", flags, text + "]"),
        ("duplicate-keys", flags, f'{{"kappa0": [], "kappa0": {body}}}'),
        ("duplicate-keys-bad-last", flags, f'{{"kappa0": {body}, "kappa0": [[["x"]]]}}'),
        ("unterminated-string", flags, '{"kappa0": "' + _nested(100)),
        ("top-level-list", flags, body),
        ("top-level-number", flags, "3"),
        ("top-level-string", flags, '"kappa0"'),
        ("empty", flags, ""),
        ("junk-100-deep", flags, text[:-1] + f', "junk": {_nested(100)}}}'),
        ("junk-5000-deep", flags, text[:-1] + f', "junk": {_nested(5000)}}}'),
        ("junk-64-deep", flags, text[:-1] + f', "junk": {_nested(64)}}}'),
        ("junk-65-deep-in-string", flags, text[:-1] + f', "junk": "{_nested(65)}"}}'),
        ("kappa0-65-deep", flags, f'{{"kappa0": {_nested(65)}}}'),
    ]
    corpus = [(case, argv, source.encode("utf-8")) for case, argv, source in cases]
    corpus.append(("raw-lone-surrogate", flags, b'{"kind": "\xed\xa0\x80", "kappa0": []}'))
    corpus.append(("latin-1", flags, b'{"kind": "caf\xe9", "kappa0": []}'))
    return corpus


DECODE_CORPUS = _decode_corpus()


@pytest.mark.parametrize("name,flags,data", DECODE_CORPUS, ids=[c[0] for c in DECODE_CORPUS])
def test_normalize_decodes_as_json_does(tmp_path, monkeypatch, capsys, name, flags, data):
    pytest.importorskip("orjson")
    src = tmp_path / "in.json"
    src.write_bytes(data)
    argv = ["normalize", *flags, "--input", str(src)]
    fast = (main(argv), *capsys.readouterr())
    monkeypatch.setitem(sys.modules, "orjson", None)  # import orjson now fails
    assert fast == (main(argv), *capsys.readouterr())


def test_decode_corpus_reaches_both_parsers():
    # the corpus above compares two routes only if orjson decodes its valid cases
    pytest.importorskip("orjson")
    valid = {name: data.decode() for name, _, data in DECODE_CORPUS if name.startswith("valid-")}
    assert len(valid) == 6
    for text in valid.values():
        assert cli._nesting_depth(text) <= 5 and "\\" not in text
    assert type(cli._fast_loads(f"[{BIG}]")[0]) is float
    assert cli._fast_loads(f'[{BIG}, "\\n"]') == [BIG, "\n"]
    with pytest.raises(json.JSONDecodeError):
        cli._fast_loads(_nested(65) + f" {BIG}")


@pytest.mark.parametrize(
    "text,depth",
    [("", 0), ("[]", 1), ('{"a": [[1], {"b": []}]}', 4), ('["[[[[", "]]"]', 1),
     ('"[[[', 0), ('["]", [[]]]', 3), ("]]][[", 0), (_nested(70), 70)],
)
def test_nesting_depth_counts_brackets_outside_strings(text, depth):
    assert cli._nesting_depth(text) == depth


def test_normalize_exits_validation_on_input_nested_two_million_deep(tmp_path):
    # orjson has no depth limit and kills the process with SIGSEGV here
    depth = 2_000_000
    deep = tmp_path / "deep.json"
    deep.write_text('{"kappa0": ' + _nested(depth) + "}")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ahsnormal", "normalize", "--kind", "conformal", "--m", "3",
         "--input", str(deep)],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_VALIDATION, "", "error: input nested too deeply\n")


def test_non_finite_report_is_never_emitted(monkeypatch, capsys):
    from ahsnormal import cli

    monkeypatch.setattr(cli, "cmd_algebra_info", lambda args: ({"residual": float("nan")}, EXIT_OK))
    assert main(["algebra-info", "--kind", "conformal", "--m", "3"]) == EXIT_INVARIANT
    assert capsys.readouterr().out == ""


SPECIAL_FLOATS = [-0.0, 0.1, 1.0, 1e-5, 1e16, 5e-324, 1.7e308]


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (21, 21)])
def test_emit_writes_arrays_as_their_nested_lists(shape, capsys):
    rng = np.random.default_rng(list(shape))
    for shift in range(len(SPECIAL_FLOATS)):
        special = np.resize(np.roll(SPECIAL_FLOATS, shift), shape)
        special *= rng.choice([-1.0, 1.0], shape)
        scaled = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape)
        report = {"kind": "lagrangian", "params": {"m": 3}, "gamma": special,
                  "gamma_oracle": scaled, "residual_trace_norm": 1e-17,
                  "metadata": {"gl_block_traces": {"closed_form_reads": "D"}}}
        lists = {**report, "gamma": special.tolist(), "gamma_oracle": scaled.tolist()}
        cli._emit(report, None)
        want = json.dumps(lists, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert capsys.readouterr().out == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_gamma_exits_invariant_and_writes_nothing(monkeypatch, tmp_path, capsys, bad):
    real = cli.gamma_closed_form

    def broken(alg, kappa0):
        closed = real(alg, kappa0)
        closed.data[0, -1] = bad
        return closed

    monkeypatch.setattr(cli, "gamma_closed_form", broken)
    src = tmp_path / "curv.json"
    src.write_text(json.dumps({"riemann": constant_curvature(3)}))
    out = tmp_path / "out.json"
    argv = ["normalize", "--kind", "projective", "--q", "3", "--input", str(src)]
    assert main(argv + ["--output", str(out)]) == EXIT_INVARIANT
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err
    assert main(argv) == EXIT_INVARIANT
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


def test_normalize_tolerance_does_not_decide_the_kernel(tmp_path):
    # the conformal m = 3 trace map has singular values 1 to 4 and no kernel;
    # a loose --tolerance loosens the residual checks, never the kernel count
    from ahsnormal.normalization import deformation_delta_kappa0
    from ahsnormal.testkit import random_gamma

    alg = algebra("conformal", m=3)
    k0 = deformation_delta_kappa0(alg, random_gamma(alg, np.random.default_rng(3)))
    src = tmp_path / "k0.json"
    src.write_text(json.dumps({"kappa0": k0.data.tolist()}))
    argv = ["normalize", "--kind", "conformal", "--m", "3", "--input", str(src)]
    code, loose, _ = run_to_file(tmp_path, "loose.json", argv + ["--tolerance", "0.3"])
    assert code == EXIT_OK
    code, default, _ = run_to_file(tmp_path, "default.json", argv)
    assert code == EXIT_OK
    assert loose["gamma_oracle"] == default["gamma_oracle"]


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name,nan_of", [
    ("trace_kappa0_via_dstar", lambda T: np.full_like(T, np.nan)),
    ("gamma_closed_form", lambda G: OneCochain(1, np.full_like(G.data, np.nan))),
], ids=["trace_dual_route", "normalization_round_trip"])
def test_verify_nan_residual_exits_invariant(monkeypatch, capsys, name, nan_of):
    # a NaN residual fails its check and the report, where max(0.0, nan)
    # would have read it as 0.0 and passed
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda alg, k0: nan_of(real(alg, k0)))
    code = main(["verify", "--kind", "projective", "--q", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_INVARIANT, "")
    assert "non-finite" in err


def test_verify_point_parameters_require_kind(tmp_path, capsys):
    for argv in (["verify", "--m", "4"], ["verify", "--check", "h11", "--p", "1", "--q", "2"]):
        out = tmp_path / "v.json"
        assert main(argv + ["--samples", "1", "--output", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert "--kind" in capsys.readouterr().err



def test_verify_loose_tolerance_keeps_the_kernel(tmp_path):
    argv = ["verify", "--kind", "conformal", "--m", "3", "--tolerance", "0.3"]
    code, rep, _ = run_to_file(tmp_path, "v.json", argv)
    assert code == EXIT_OK
    (point,) = rep["points"]
    (cert,) = [c for c in point["checks"] if c["check"] == "uniqueness_kernel"]
    assert cert["value"] == 0


def test_verify_h11_check_rejects_debug_mutate(tmp_path, capsys):
    out = tmp_path / "h.json"
    argv = ["verify", "--check", "h11", "--kind", "projective", "--debug-mutate"]
    assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--debug-mutate" in err and "--check h11" in err


@pytest.mark.parametrize("extra", [[], ["--check", "h11"]], ids=["suite", "h11"])
def test_verify_rejects_negative_seed(tmp_path, capsys, extra):
    out = tmp_path / "v.json"
    argv = ["verify", "--kind", "projective", "--q", "2", "--seed", "-1", *extra]
    assert main(argv) == EXIT_VALIDATION
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "--seed" in err
    assert main(argv + ["--output", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


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


def test_verify_builds_the_trace_map_once_per_point(trace_map_builds, tmp_path):
    # the uniqueness certificate, the oracle solves and the degenerate
    # detection at sl(2) share one factorization per point
    code, rep, _ = run_to_file(tmp_path, "v.json", ["verify", "--samples", "1"])
    assert code == EXIT_OK
    builds = [(alg.kind, alg.params) for alg in trace_map_builds]
    assert builds == [(p["kind"], p["params"]) for p in rep["points"]]
    assert builds == [(k, p) for k, p in VERIFY_GRID]


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


def test_debug_mutate_verifies_a_copy_with_parts_of_its_own(tmp_path, monkeypatch):
    seen = []
    real = cli._verify_point

    def spy(alg, *args):
        seen.append(alg)
        return real(alg, *args)

    monkeypatch.setattr(cli, "_verify_point", spy)
    argv = ["verify", "--kind", "lagrangian", "--m", "3", "--samples", "1", "--debug-mutate"]
    assert run_to_file(tmp_path, "v.json", argv)[0] == EXIT_INVARIANT
    (mutated,) = seen
    intact = graded_algebra.build_algebra("lagrangian", m=3)
    assert mutated.parts is not intact.parts
    # the same nonzeros, two of them negated: the first, C[i, j, k], and C[j, i, k]
    N = intact.n_total
    assert mutated.C.shape == intact.C.shape
    assert mutated.C.rows.tobytes() == intact.C.rows.tobytes()
    assert mutated.C.cols.tobytes() == intact.C.cols.tobytes()
    (changed,) = np.nonzero(mutated.C.vals != intact.C.vals)
    assert changed.size == 2 and changed[0] == 0
    np.testing.assert_array_equal(mutated.C.vals[changed], -intact.C.vals[changed])
    (i, j), (i2, j2) = divmod(int(intact.C.rows[0]), N), divmod(int(intact.C.rows[changed[1]]), N)
    assert (i2, j2, intact.C.cols[changed[1]]) == (j, i, intact.C.cols[0])


def test_verify_jacobi_is_exact_whatever_the_tolerance(tmp_path):
    # a corrupt tensor stops at the jacobi record even under a huge
    # --tolerance, before any check that presupposes a Lie bracket
    argv = ["verify", "--debug-mutate", "--tolerance", "10"]
    code, rep, _ = run_to_file(tmp_path, "v.json", argv)
    assert code == EXIT_INVARIANT
    assert len(rep["points"]) == 17
    for point in rep["points"]:
        last = point["checks"][-1]
        assert last["check"] == "jacobi" and not last["passed"] and last["residual"] > 0.0


def test_tiny_tolerance_fails_only_float_agreements(tmp_path):
    # --tolerance bounds float agreements alone: below the rounding of the
    # solves they fail, and every exact fact and fixed threshold still holds
    argv = ["verify", "--kind", "conformal", "--m", "3", "--tolerance", "1e-17"]
    code, rep, _ = run_to_file(tmp_path, "v.json", argv)
    assert code == EXIT_INVARIANT
    (point,) = rep["points"]
    failed = {c["check"] for c in point["checks"] if not c["passed"]}
    assert failed
    assert failed <= {"trace_dual_route", "normalization_round_trip", "normalized_trace_residual"}


def test_normalize_tiny_tolerance_reports_the_disagreement(tmp_path):
    from ahsnormal.testkit import round_trip_sample

    alg = algebra("conformal", m=3)
    _, k0 = round_trip_sample(alg, np.random.default_rng(7))
    src = tmp_path / "k0.json"
    src.write_text(json.dumps({"kind": "conformal", "params": {"m": 3}, "kappa0": k0.data.tolist()}))
    argv = ["normalize", "--kind", "conformal", "--m", "3", "--input", str(src)]
    code, rep, _ = run_to_file(tmp_path, "n.json", argv + ["--tolerance", "1e-17"])
    assert code == EXIT_INVARIANT
    code, default, _ = run_to_file(tmp_path, "d.json", argv)
    assert code == EXIT_OK
    assert rep == default


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


def test_cli_import_does_not_load_scipy():
    code = "import sys, ahsnormal.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_runs_without_loading_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from ahsnormal import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--kind', 'projective', '--q', '2'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "      'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # numpy.ma comes in through np.unique's masked-array check, a per-process
    # import cost that no rank needs
    assert proc.stdout.strip() == f"{EXIT_OK} [] False"


def test_only_normalize_loads_orjson(tmp_path):
    # a cold import of orjson costs milliseconds that no other command needs
    pytest.importorskip("orjson")
    src = tmp_path / "k0.json"
    src.write_text(json.dumps({"kappa0": [[[0.0]]]}))
    code = (
        "import contextlib, io, sys\n"
        "from ahsnormal import cli\n"
        "runs = [['verify', '--kind', 'projective', '--q', '2'],\n"
        "        ['algebra-info', '--kind', 'conformal', '--m', '3'],\n"
        "        ['cohomology', '--kind', 'projective', '--q', '2'],\n"
        f"        ['normalize', '--kind', 'grassmannian', '--p', '1', '--q', '1', '--input', {str(src)!r}]]\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, 'orjson' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        f"verify {EXIT_OK} False",
        f"algebra-info {EXIT_OK} False",
        f"cohomology {EXIT_OK} False",
        f"normalize {EXIT_NONUNIQUE} True",
        "",
    ]


def test_every_package_callable_cli_binds_is_a_traced_span(monkeypatch):
    """The benchmark's tracer wraps each package callable that cli binds by
    name and refuses a span outside its LAYERS, so cli reaches private
    helpers (``_is_int``) and classes (``Triplets``) through the module object."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (bench / "tracing.py").is_file():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    monkeypatch.syspath_prepend(str(bench))
    import tracing
    spans = {name for names, _ in tracing.LAYERS.values() for name in names}
    for attr, value in vars(cli).items():
        home = getattr(value, "__module__", "").rpartition(".")[2]
        if callable(value) and attr not in tracing.NOT_TRACED and home in tracing.MODULES[:-1]:
            assert f"{home}.{attr}" in spans, attr
