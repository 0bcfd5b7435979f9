"""Command-line front end: algebra inspection, cohomology, normalization,
and the seeded verification suite.

All reports are JSON with sorted keys, so output is byte-identical across
runs with the same inputs and seed.  Exit codes: 0 success, 2 validation
error, 3 non-uniqueness (degenerate normalization problem), 4 invariant
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import re
import sys
from itertools import chain

import numpy as np

from . import graded_algebra
from .graded_algebra import (
    KINDS,
    GradedLieAlgebra,
    ParameterError,
    build_algebra,
    center_dim,
    cross_check_matrix_rep,
    faithfulness_ranks,
    grading_residual,
    jacobi_residual,
)
from .normalization import (
    NonUniquenessError,
    curvature_from_riemann,
    deformation_delta_kappa0,
    fiber_constancy_check,
    gamma_closed_form,
    oracle_gamma,
    trace_kappa0,
    trace_kappa0_via_dstar,
    uniqueness_certificate,
)
from .prolongation_model import (
    FrameChange,
    automorphism_residual,
    group_action_one_cochain,
    model_second_torsion,
    second_torsion_reduction,
    torsion_equivariance,
    z_drop_residual,
)
from .spencer import (
    TwoCochain,
    cohomology_dim,
    complementarity_check,
    spencer_dstar,
)
from .testkit import harmonic_sampler, round_trip_sample

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONUNIQUE = 3
EXIT_INVARIANT = 4

# verify's fixed thresholds, independent of --tolerance: the largest
# |automorphism residual| of a random frame change, and the largest
# |d*(g . t) - g . d*(t)| of a random torsion t under it.
FRAME_CHANGE_TOL = 1e-10
EQUIVARIANCE_TOL = 1e-8

# The deepest [ or { nesting that orjson may parse; a valid curvature file
# nests at most 5 deep.  orjson has no depth limit and overflows the C stack
# somewhere past 100,000 levels, so deeper text goes to json, which raises
# RecursionError (exit 2) instead.
ORJSON_MAX_DEPTH = 64


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _point(args: argparse.Namespace) -> dict:
    """The structure parameters given by --p, --q and --m."""
    return {k: getattr(args, k) for k in ("p", "q", "m") if getattr(args, k, None) is not None}


# An orjson number token whose notation differs from float.__repr__'s, which
# prints the same shortest digits: an exponent (orjson 1e16 and 1e-7, repr
# 1e+16 and 1e-07), a fraction below 1e-4 written out (0.00001, repr 1e-05),
# or 17 or more integer digits (at least 1e16, where repr uses an exponent).
# Anchored at token starts, so no token is backtracked into.
_NOT_REPR = re.compile(rb"(?<=[\[,])-?(?:[0-9.]+e[-+]?[0-9]+|0\.0000[0-9]*|[0-9]{17}[0-9.]*)")


def _compact_json(a: np.ndarray) -> str:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` of a float array,
    through orjson's numpy encoder where orjson imports; a non-finite entry
    raises json's ValueError.

    orjson writes the shortest round-trip digits, as repr does, and NaN and
    infinity as null, so the array is checked first and only the tokens of
    :data:`_NOT_REPR` are printed again, by repr.
    """
    peak = float(np.abs(a).max(initial=0.0))
    if not np.isfinite(peak):
        json.dumps(a.tolist(), allow_nan=False)  # raises json's ValueError
    try:
        import orjson
    except ImportError:
        return json.dumps(a.tolist(), separators=(",", ":"))
    text = orjson.dumps(np.ascontiguousarray(a, dtype=float), option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text or b"0.0000" in text or peak >= 1e16:
        text = _NOT_REPR.sub(lambda m: repr(float(m[0])).encode(), text)
    return text.decode()


def _emit(report: dict, output: str | None) -> None:
    """Write the report; a non-finite number raises ValueError, as bare NaN
    or Infinity tokens are not JSON.

    A top-level 2-d ndarray value is written as its nested list would be,
    but through :func:`_compact_json`: a placeholder stands in for it in the
    indented dump and is then swapped for the compact list, laid out at
    indent 2.
    """
    arrays = {k: v for k, v in report.items() if isinstance(v, np.ndarray)}
    marks = {k: f"\0ndarray {k}" for k in arrays}
    text = json.dumps({**report, **marks}, sort_keys=True, indent=2, allow_nan=False) + "\n"
    for k, a in arrays.items():
        rows = _compact_json(a)[2:-2]
        rows = rows.replace(",", ",\n      ").replace("],\n      [", "\n    ],\n    [\n      ")
        text = text.replace(json.dumps(marks[k]), f"[\n    [\n      {rows}\n    ]\n  ]", 1)
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_output(output: str | None) -> None:
    """Raise the OSError that writing ``output`` would raise where it is known
    before anything is created: an empty path, a directory, or a missing
    parent directory."""
    if output is None:
        return
    if os.path.isdir(output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), output)
    if not (output and os.path.isdir(os.path.dirname(output) or ".")):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), output)


def _grid(args: argparse.Namespace) -> list[tuple[str, dict]]:
    """Deterministic parameter grid; flags narrow it to one kind or point."""
    explicit = _point(args)
    if explicit and not args.kind:
        flags = ", ".join(f"--{name}" for name in explicit)
        raise ParameterError(f"{flags} name one grid point and need --kind as well")
    if explicit:
        return [(args.kind, explicit)]
    points: list[tuple[str, dict]] = []
    for m in range(3, 6):
        points.append(("conformal", {"m": m}))
    for p in range(1, 4):
        for q in range(p, 4):
            points.append(("grassmannian", {"p": p, "q": q}))
    for q in range(2, 4):
        points.append(("projective", {"q": q}))
    for m in range(3, 6):
        points.append(("lagrangian", {"m": m}))
    for m in range(3, 6):
        points.append(("spinorial", {"m": m}))
    if args.kind:
        points = [(k, prm) for k, prm in points if k == args.kind]
    return points


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_algebra_info(args: argparse.Namespace) -> tuple[dict, int]:
    alg = build_algebra(args.kind, **_point(args))
    n, n0, n1 = alg.dims
    nnz = alg.C.vals.size
    check = cross_check_matrix_rep(alg)
    report = {
        "kind": alg.kind,
        "params": dict(alg.params),
        "dims": {"n_m1": n, "n_0": n0, "n_1": n1, "total": alg.n_total},
        "labels": list(alg.labels),
        "center_dim": center_dim(alg),
        "structure_constants_nonzero": nnz,
        "structure_constants_density": nnz / float(alg.n_total**3),
        "matrix_rep_check": {
            "max_discrepancy": check["max_discrepancy"],
            "sector_scalars": check["sector_scalars"],
            "passed": check["max_discrepancy"] == 0.0,
        },
        "normalizable": alg.normalizable,
        "projective_type": alg.projective_type,
    }
    return report, EXIT_OK


def cmd_cohomology(args: argparse.Namespace) -> tuple[dict, int]:
    alg = build_algebra(args.kind, **_point(args))
    report = {
        "kind": alg.kind,
        "params": dict(alg.params),
        "H11": cohomology_dim(alg, "H11"),
        "H21": cohomology_dim(alg, "H21"),
        "complementarity": {
            "grade_-1": complementarity_check(alg, -1),
            "grade_0": complementarity_check(alg, 0),
        },
        "projective_type": alg.projective_type,
    }
    return report, EXIT_OK


_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_DEPTH_STEP = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


def _nesting_depth(text: str) -> int:
    """The deepest [ or { nesting of ``text`` outside strings.

    Only for text without a backslash, where each string runs from one
    quote to the next; an unterminated string runs to the end, as a parser
    reads it.
    """
    outside = text.encode().translate(None, _NOT_STRUCTURE).split(b'"')[::2]
    steps = np.frombuffer(b"".join(outside).translate(_DEPTH_STEP), np.int8)
    return int(steps.cumsum(dtype=np.int64).max(initial=0))


def _fast_loads(text: str):
    """The JSON value of ``text``: orjson's, unless orjson is missing or the
    text holds a backslash or nests deeper than ORJSON_MAX_DEPTH, where json
    decodes.  orjson is imported here, so only ``normalize`` loads it.

    orjson raises its JSONDecodeError, a ValueError, on every text json
    refuses and on some json accepts (NaN and Infinity tokens, 1e400,
    integers past the float range); where both accept, the values differ
    only in integers past 64 bits, which orjson returns as the nearest float.
    """
    try:
        import orjson
    except ImportError:
        return json.loads(text)
    if "\\" in text or _nesting_depth(text) > ORJSON_MAX_DEPTH:
        return json.loads(text)
    return orjson.loads(text)


def _read_curvature(alg: GradedLieAlgebra, text: str) -> tuple[TwoCochain, dict]:
    """The curvature file ``text`` as :func:`_load_kappa0` of json's value.

    The orjson value is used when it passes validation: its numeric fields
    then hold the same floats (an integer past 64 bits rounds to the float
    json's integer converts to).  Any other text, refused by orjson or by
    validation, is decoded by json and validated again, so its error and
    message are json's.
    """
    try:
        return _load_kappa0(alg, _fast_loads(text))
    except ValueError:
        pass
    return _load_kappa0(alg, json.loads(text))


def _load_kappa0(alg: GradedLieAlgebra, payload) -> tuple[TwoCochain, dict]:
    """Parse the curvature JSON payload into a grade-0 two-cochain."""
    if not isinstance(payload, dict):
        raise ValueError("curvature file must hold a JSON object")
    n, n0, _ = alg.dims
    meta: dict = {}
    if "kind" in payload and payload["kind"] != alg.kind:
        raise ValueError(
            f"input file is for kind {payload['kind']!r}, flags request {alg.kind!r}"
        )
    if "params" in payload and not isinstance(payload["params"], dict):
        raise ValueError("input file params must be a JSON object")
    for name, value in payload.get("params", {}).items():
        if not graded_algebra._is_int(value):
            raise ParameterError(
                f"input file parameter {name!r} must be an integer, got {value!r}"
            )
    if "params" in payload and payload["params"] != dict(alg.params):
        raise ValueError(
            f"input file params {payload['params']} do not match flags {alg.params}"
        )
    has_k = "kappa0" in payload
    has_r = "riemann" in payload
    if has_k == has_r:
        raise ValueError("curvature file must contain exactly one of 'kappa0' or 'riemann'")
    if has_r:
        R = _numeric_field(payload, "riemann", (n, n, n, n))
        kappa0 = curvature_from_riemann(alg, R)  # rejects kinds without raw input
        meta["embedding_sign"] = {"conformal": -1.0, "projective": 1.0}[alg.kind]
        return kappa0, meta
    return TwoCochain(0, _numeric_field(payload, "kappa0", (n, n, n0))), meta


def _numeric_field(payload: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The nested array ``payload[name]`` as floats of the given shape.

    Every leaf must be a finite JSON number: strings and booleans (``bool``
    is its own type here) are rejected, not coerced as ``np.asarray`` would.
    """
    level = [payload[name]]
    while True:  # one level of nesting at a time, so each type scan runs in C
        types = set(map(type, level))
        if not types <= {list, int, float}:
            bad = next(v for v in level if type(v) not in (list, int, float))
            raise ValueError(f"{name} field holds a non-numeric entry {bad!r}")
        if types != {list}:
            break  # the leaves; a ragged level fails the conversion below
        level = list(chain.from_iterable(level))
    data = np.asarray(payload[name], dtype=float)  # OverflowError past the float range
    if data.shape != shape:
        raise ValueError(f"{name} field must be a nested array of shape {shape}")
    if not np.isfinite(data).all():
        raise ValueError(f"{name} field holds a non-finite entry (NaN or infinity)")
    return data


def _check_tolerance(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"--tolerance must be a positive finite number, got {tol}")


def cmd_normalize(args: argparse.Namespace) -> tuple[dict, int]:
    _check_tolerance(args.tolerance)
    alg = build_algebra(args.kind, **_point(args))
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    # from finite input, overflow is the only way to inf or NaN here (no step
    # divides by data): main refuses it with exit 2, while a non-finite value
    # that a broken step makes still ends as an invariant failure, exit 4
    with np.errstate(over="raise"):
        kappa0, meta = _read_curvature(alg, text)
        closed = gamma_closed_form(alg, kappa0)
        oracle = oracle_gamma(alg, kappa0)
        diff = float(np.abs(closed.data - oracle.data).max())
        kbar = TwoCochain(0, kappa0.data - deformation_delta_kappa0(alg, closed).data)
        residual = float(np.abs(trace_kappa0(alg, kbar)).max())
    if alg.kind == "grassmannian":
        meta["gl_block_traces"] = {
            "closed_form_reads": "D",
            "block_relation": "trace_A = -trace_D on trace-free values",
        }
    report = {
        "kind": alg.kind,
        "params": dict(alg.params),
        "gamma": closed.data,
        "gamma_oracle": oracle.data,
        "max_abs_diff_closed_vs_oracle": diff,
        "residual_trace_norm": residual,
        "method": "closed_form",
        "oracle_method": "least_squares_trace_map",
        "convention": "kbar = k - delta(k)",
        "metadata": meta,
    }
    scale = max(1.0, float(np.abs(kappa0.data).max()))
    if not (diff <= args.tolerance * scale and residual <= args.tolerance * scale):
        return report, EXIT_INVARIANT
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_point(
    alg: GradedLieAlgebra, rng: np.random.Generator, samples: int, tol: float
) -> list[dict]:
    """All per-algebra invariants, as a flat list of check records."""
    n, n0, n1 = alg.dims
    checks: list[dict] = []

    def record(name: str, passed: bool, residual: float | None = None, **extra) -> None:
        entry = {"check": name, "passed": bool(passed)}
        if residual is not None:
            entry["residual"] = float(residual)
        entry.update(extra)
        checks.append(entry)

    res = grading_residual(alg)
    record("grading", res == 0.0, res)
    res = jacobi_residual(alg)
    record("jacobi", res == 0.0, res)
    if not all(c["passed"] for c in checks):
        # The structure tensor is not a graded Lie bracket; everything after
        # this point presupposes one, so stop here with the failure recorded.
        return checks
    dim = center_dim(alg)
    record("center_dim", dim == 1, value=dim)
    ranks = faithfulness_ranks(alg)
    record(
        "injectivity",
        all(r == e for r, e in ranks.values()),
        ranks={k: list(v) for k, v in ranks.items()},
    )
    mc = cross_check_matrix_rep(alg)
    record("matrix_rep_cross_check", mc["max_discrepancy"] == 0.0, mc["max_discrepancy"])
    for grade in (-1, 0):
        comp = complementarity_check(alg, grade)
        record(f"complementarity_grade_{grade}", comp["complementary"], detail=comp)
    h11 = cohomology_dim(alg, "H11")
    h21 = cohomology_dim(alg, "H21")
    record("H11_matches_type", (h11 > 0) == alg.projective_type, value=h11)
    sl2 = alg.kind == "grassmannian" and alg.params == {"p": 1, "q": 1}
    record("H21_matches_type", (h21 > 0) == sl2, value=h21)

    # residuals fold by np.max, which keeps a NaN (Python's max may drop it)
    gaps = []
    for _ in range(samples):
        k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
        direct = trace_kappa0(alg, k0)
        via = trace_kappa0_via_dstar(alg, k0)
        gaps.append(float(np.abs(direct - via).max()))
    worst = np.max(gaps)
    record("trace_dual_route", worst <= tol, worst)

    res = z_drop_residual(alg)
    record("z_drop", res == 0.0, res)

    fc = FrameChange.from_g0(alg, rng.uniform(-1.0, 1.0, n0), rng.uniform(-1.0, 1.0, n1))
    res = automorphism_residual(alg, fc)
    record("frame_change_automorphism", res <= FRAME_CHANGE_TOL, res)
    t = TwoCochain(-1, rng.uniform(-1.0, 1.0, (n, n, n)))
    moved = torsion_equivariance(alg, t, fc)
    lhs = spencer_dstar(alg, moved).data
    rhs = group_action_one_cochain(alg, fc, spencer_dstar(alg, t)).data
    res = float(np.abs(lhs - rhs).max())
    record("torsion_equivariance_dstar", res <= EQUIVARIANCE_TOL, res)

    k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
    full = model_second_torsion(alg, t, k0)
    got, rep = second_torsion_reduction(alg, full)
    res = float(np.abs(got.data - k0.data).max())
    record("second_torsion_round_trip", rep["consistent"] and res == 0.0, res)

    cert = uniqueness_certificate(alg)
    record(
        "uniqueness_kernel",
        (cert["kernel_dim"] == 0) == alg.normalizable,
        value=cert["kernel_dim"],
    )

    if alg.normalizable:
        H = harmonic_sampler(alg, 0, block_trace_free=alg.kind == "grassmannian")
        diffs, residuals = [], []
        for _ in range(samples):
            gamma, k0 = round_trip_sample(alg, rng, sampler=H)
            cf = gamma_closed_form(alg, k0)
            orc = oracle_gamma(alg, k0)
            diffs += [float(np.abs(cf.data - gamma.data).max()),
                      float(np.abs(orc.data - gamma.data).max())]
            kbar = TwoCochain(0, k0.data - deformation_delta_kappa0(alg, cf).data)
            residuals.append(float(np.abs(trace_kappa0(alg, kbar)).max()))
        worst_diff, worst_res = np.max(diffs), np.max(residuals)
        record("normalization_round_trip", worst_diff <= tol, worst_diff)
        record("normalized_trace_residual", worst_res <= tol, worst_res)

        km1 = harmonic_sampler(alg, -1)(rng)
        k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
        tau = rng.uniform(-1.0, 1.0, n1)
        fib = fiber_constancy_check(alg, k0, km1, tau)
        record("fiber_constancy", fib["passed"], fib["residual"])
    else:
        try:
            oracle_gamma(alg, TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0))))
            record("degenerate_detection", False)
        except NonUniquenessError as err:
            record("degenerate_detection", err.kernel_dim > 0, value=err.kernel_dim)
    return checks


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    if args.samples < 1:
        raise ParameterError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be non-negative, got {args.seed}")
    _check_tolerance(args.tolerance)
    points = _grid(args)
    if not points:
        raise ParameterError(f"no grid points match kind {args.kind!r}")
    if args.check == "h11":
        if args.debug_mutate:
            raise ParameterError("--debug-mutate runs the full suite; it cannot go with --check h11")
        entries = []
        for kind, params in points:
            alg = build_algebra(kind, **params)
            h11 = cohomology_dim(alg, "H11")
            entries.append(
                {
                    "kind": kind,
                    "params": params,
                    "H11": h11,
                    "nonzero": h11 > 0,
                    "projective_type": alg.projective_type,
                }
            )
        return {"check": "h11", "seed": args.seed, "points": entries}, EXIT_OK
    results = []
    all_passed = True
    for idx, (kind, params) in enumerate(points):
        alg = build_algebra(kind, **params)
        if args.debug_mutate:
            # flip the first nonzero C[i, j, k] and its partner C[j, i, k]
            C, N = alg.C, alg.n_total
            i, j = divmod(int(C.rows[0]), N)
            vals = C.vals.copy()
            vals[((C.rows == C.rows[0]) | (C.rows == j * N + i)) & (C.cols == C.cols[0])] *= -1.0
            alg = dataclasses.replace(alg, C=graded_algebra.Triplets(C.rows, C.cols, vals, C.shape))
        rng = np.random.default_rng([args.seed, idx])
        checks = _verify_point(alg, rng, args.samples, args.tolerance)
        passed = all(c["passed"] for c in checks)
        all_passed = all_passed and passed
        results.append(
            {"kind": kind, "params": params, "passed": passed, "checks": checks}
        )
    report = {
        "seed": args.seed,
        "samples": args.samples,
        "tolerance": args.tolerance,
        "mutated": bool(args.debug_mutate),
        "points": results,
        "all_passed": all_passed,
    }
    return report, EXIT_OK if all_passed else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahsnormal",
        description=(
            "Graded Lie algebras of almost Hermitian symmetric structures: "
            "bracket tables, Spencer cohomology, and normalization of the "
            "deformation tensor."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, kind_required: bool) -> None:
        p.add_argument("--kind", choices=KINDS, required=kind_required)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--output", default=None, help="write the JSON report here")

    p_info = sub.add_parser("algebra-info", help="dimensions, labels, bracket checks")
    add_common(p_info, kind_required=True)

    p_coh = sub.add_parser("cohomology", help="Spencer cohomology report")
    add_common(p_coh, kind_required=True)

    p_norm = sub.add_parser("normalize", help="deformation tensor from curvature JSON")
    add_common(p_norm, kind_required=True)
    p_norm.add_argument("--input", required=True, help="curvature JSON file")
    p_norm.add_argument("--tolerance", type=float, default=1e-9)

    p_ver = sub.add_parser("verify", help="run the seeded invariant suite")
    add_common(p_ver, kind_required=False)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--samples", type=int, default=5)
    p_ver.add_argument("--tolerance", type=float, default=1e-9)
    p_ver.add_argument(
        "--debug-mutate",
        action="store_true",
        help="flip one structure-constant sign to demonstrate failure detection",
    )
    p_ver.add_argument(
        "--check",
        choices=["h11"],
        default=None,
        help="restrict the report to one focused check",
    )
    return parser


_PARSER = _build_parser()  # built once: in-process callers run main per request


def _cannot_write(err: OSError) -> int:
    sys.stderr.write(f"error: cannot write --output: {err}\n")
    return EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _check_output(args.output)
    except OSError as err:
        return _cannot_write(err)
    try:
        if args.command == "algebra-info":
            report, code = cmd_algebra_info(args)
        elif args.command == "cohomology":
            report, code = cmd_cohomology(args)
        elif args.command == "normalize":
            report, code = cmd_normalize(args)
        else:
            report, code = cmd_verify(args)
    except NonUniquenessError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_NONUNIQUE
    except RecursionError:
        # json.loads of input nested deeper than the interpreter's stack allows
        sys.stderr.write("error: input nested too deeply\n")
        return EXIT_VALIDATION
    except FloatingPointError:
        sys.stderr.write("error: input overflows float64 arithmetic\n")
        return EXIT_VALIDATION
    except MemoryError:
        sys.stderr.write("error: the requested point exceeds the memory available\n")
        return EXIT_VALIDATION
    except (ParameterError, ValueError, OverflowError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_VALIDATION
    try:
        _emit(report, args.output)
    except OSError as err:  # a failure only the write reveals
        return _cannot_write(err)
    except ValueError as err:
        # normalize refuses input whose arithmetic overflows, so a report
        # that holds NaN or infinity comes from a broken computation, not a
        # bad request
        sys.stderr.write(f"error: report holds a non-finite number ({err})\n")
        return EXIT_INVARIANT
    return code


if __name__ == "__main__":
    sys.exit(main())
