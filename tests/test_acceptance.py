"""Acceptance suite: eleven end-to-end criteria, one test (one line) each.

Run ``pytest -v tests/test_acceptance.py``: each criterion reports exactly
one pass/fail line.  Every test also prints an ``ACCEPTANCE ...`` summary
with the worst measured residuals (visible with ``-rA`` or ``-s``).  The
whole suite runs in well under five minutes on one core.
"""

from __future__ import annotations

import json

import numpy as np

from conftest import GRID, SMALL, algebra, ref_dense_C, ref_trace_g0

from ahsnormal.cli import main as cli_main
from ahsnormal.graded_algebra import (
    center_dim,
    cross_check_matrix_rep,
    faithfulness_ranks,
    grading_residual,
    jacobi_residual,
)
from ahsnormal.normalization import (
    curvature_from_riemann,
    deformation_delta_kappa0,
    fiber_constancy_check,
    gamma_closed_form,
    oracle_gamma,
    trace_kappa0,
    trace_kappa0_via_dstar,
    uniqueness_certificate,
)
from ahsnormal.spencer import (
    OneCochain,
    TwoCochain,
    cohomology_dim,
    complementarity_check,
)
from ahsnormal.testkit import harmonic_sampler, random_gamma, round_trip_sample

from test_normalization import (
    expand_pairs,
    lagrangian_gamma_from_coeffs,
    spinorial_gamma_from_coeffs,
)


def announce(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE criterion {num:02d} ({name}): PASS — {detail}")


def coeffs(alg, a: str, b: str) -> dict[str, float]:
    i, j = alg.labels.index(a), alg.labels.index(b)
    return {alg.labels[k]: float(c) for k, c in enumerate(ref_dense_C(alg)[i, j]) if c != 0.0}


def constant_curvature(n: int) -> np.ndarray:
    eye = np.eye(n)
    return np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)


# ---------------------------------------------------------------------------
# 1. bracket tables: hand-checked entries, exact matrix cross-check, and
#    graded-sector scalar factorization
# ---------------------------------------------------------------------------

HAND_CHECKED = [
    ("conformal", {"m": 3}, [
        ("x1", "z1", {"Z0": -1.0}),
        ("x1", "z2", {"F(1,2)": 1.0}),
        ("F(1,2)", "x2", {"x1": 1.0}),
        ("Z0", "x1", {"x1": -1.0}),
        ("x1", "x2", {}),
    ]),
    ("grassmannian", {"p": 2, "q": 3}, [
        ("x^1_1", "z^1_2", {"a^1_2": -1.0}),
        ("x^1_1", "z^2_1", {"d^2_1": 1.0}),
        ("x^1_1", "z^1_1", {"H1": -1.0, "H2": -1.0}),
        ("a^1_2", "x^2_1", {"x^1_1": -1.0}),
        ("z^1_1", "z^3_2", {}),
    ]),
    ("projective", {"q": 3}, [
        ("x1", "z2", {"h(2,1)": 1.0}),
        ("x1", "z1", {"h(1,1)": 2.0, "h(2,2)": 1.0, "h(3,3)": 1.0}),
        ("h(1,2)", "x1", {"x2": 1.0}),
    ]),
    ("lagrangian", {"m": 3}, [
        ("z(1,1)", "x(1,1)", {"h(1,1)": -1.0}),
        ("z(1,2)", "x(1,1)", {"h(2,1)": -0.5}),
        ("z(1,2)", "x(1,2)", {"h(1,1)": -0.25, "h(2,2)": -0.25}),
        ("h(1,2)", "x(1,2)", {"x(2,2)": 1.0}),
    ]),
    ("spinorial", {"m": 3}, [
        ("z(1,2)", "x(1,2)", {"h(1,1)": 0.25, "h(2,2)": 0.25}),
        ("z(1,2)", "x(1,3)", {"h(2,3)": 0.25}),
        ("z(1,2)", "x(2,3)", {"h(1,3)": -0.25}),
    ]),
]


def test_criterion_01_bracket_tables_and_matrix_oracle():
    for kind, params, entries in HAND_CHECKED:
        alg = algebra(kind, **params)
        for a, b, want in entries:
            assert coeffs(alg, a, b) == want, (kind, a, b)
    for kind, params in GRID:
        alg = algebra(kind, **params)
        check = cross_check_matrix_rep(alg)
        assert check["max_discrepancy"] == 0.0, (kind, params)
        # scalars factor over the grading: lambda(gx) lambda(gy) / lambda(gx+gy)
        # with lambda(+-1) = 1 and lambda(0) read off the (-1,0) sector
        lam = {-1: 1.0, 0: float(check["sector_scalars"].get("(-1,0)", 1.0)), 1: 1.0}
        for key, value in check["sector_scalars"].items():
            gx, gy = (int(t) for t in key.strip("()").split(","))
            predicted = lam[gx] * lam[gy] / lam[gx + gy]
            assert abs(value - predicted) <= 1e-12 * abs(predicted), (kind, params, key)
        if kind == "projective":
            assert abs(lam[0] - (params["q"] + 1)) <= 1e-12
        else:
            assert all(abs(v - 1.0) <= 1e-12 for v in check["sector_scalars"].values())
    announce(1, "bracket tables + matrix cross-check", "exact on all 25 grid points")


# ---------------------------------------------------------------------------
# 2. grading, Jacobi, one-dimensional center, faithful adjoint actions
# ---------------------------------------------------------------------------


def test_criterion_02_algebra_axioms():
    for kind, params in GRID:
        alg = algebra(kind, **params)
        assert grading_residual(alg) == 0.0, (kind, params)
        assert jacobi_residual(alg) == 0.0, (kind, params)
        assert center_dim(alg) == 1, (kind, params)
        ranks = faithfulness_ranks(alg)
        assert all(r == e for r, e in ranks.values()), (kind, params, ranks)
    announce(2, "axioms", "grading/Jacobi exact, center dim 1, actions faithful")


# ---------------------------------------------------------------------------
# 3. Ricci-type trace: closed contraction vs codifferential route
# ---------------------------------------------------------------------------


def test_criterion_03_trace_dual_route():
    worst = 0.0
    for kind, params in SMALL:
        alg = algebra(kind, **params)
        n, n0, _ = alg.dims
        rng = np.random.default_rng(3)
        for _ in range(100):
            k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
            scale = max(1.0, float(np.abs(k0.data).max()))
            gap = float(
                np.abs(trace_kappa0(alg, k0) - trace_kappa0_via_dstar(alg, k0)).max()
            )
            assert gap <= 1e-12 * scale, (kind, params)
            worst = max(worst, gap)
    announce(3, "trace dual route", f"500 samples, worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. image of the differential is complementary to ker of the codifferential
# ---------------------------------------------------------------------------


def test_criterion_04_complementarity():
    for kind, params in GRID:
        alg = algebra(kind, **params)
        for grade in (-1, 0):
            rep = complementarity_check(alg, grade)
            assert rep["complementary"], (kind, params, grade)
            assert rep["intersection_dim"] == 0
            assert rep["dim_image_d"] + rep["dim_kernel_dstar"] == rep["total_dim"]
    announce(4, "complementarity", "both grades on all 25 grid points")


# ---------------------------------------------------------------------------
# 5. Spencer cohomology dimensions against the frozen table
# ---------------------------------------------------------------------------

EXPECTED_COHOMOLOGY = {
    ("grassmannian", (1, 1)): (0, 1),
    ("grassmannian", (1, 2)): (4, 0),
    ("grassmannian", (1, 3)): (15, 0),
    ("grassmannian", (1, 4)): (36, 0),
    ("projective", (2,)): (4, 0),
    ("projective", (3,)): (15, 0),
    ("projective", (4,)): (36, 0),
    ("spinorial", (3,)): (15, 0),
}


def test_criterion_05_cohomology_table():
    for kind, params in GRID:
        alg = algebra(kind, **params)
        key = (kind, tuple(params[k] for k in sorted(params)))
        h11, h21 = EXPECTED_COHOMOLOGY.get(key, (0, 0))
        assert cohomology_dim(alg, "H11") == h11, (kind, params)
        assert cohomology_dim(alg, "H21") == h21, (kind, params)
    announce(5, "cohomology table", "frozen dimensions on all 25 grid points")


# ---------------------------------------------------------------------------
# 6. normalization round trips: closed form and linear-solve oracle both
#    recover the planted deformation tensor through harmonic pollution
# ---------------------------------------------------------------------------


def test_criterion_06_normalization_round_trips():
    worst_gap = worst_trace = 0.0
    count = 0
    for idx, (kind, params) in enumerate(GRID):
        alg = algebra(kind, **params)
        if not alg.normalizable:
            continue
        rng = np.random.default_rng([6, idx])
        sampler = harmonic_sampler(alg, 0, block_trace_free=(kind == "grassmannian"))
        for _ in range(50):
            gamma, k0 = round_trip_sample(alg, rng, sampler=sampler)
            closed = gamma_closed_form(alg, k0)
            oracle = oracle_gamma(alg, k0)
            gap = max(
                float(np.abs(closed.data - gamma.data).max()),
                float(np.abs(oracle.data - gamma.data).max()),
            )
            kbar = TwoCochain(
                0, k0.data - deformation_delta_kappa0(alg, closed).data
            )
            tr = float(np.abs(trace_kappa0(alg, kbar)).max())
            assert gap <= 1e-9, (kind, params, gap)
            assert tr <= 1e-9, (kind, params, tr)
            worst_gap = max(worst_gap, gap)
            worst_trace = max(worst_trace, tr)
            count += 1
    announce(
        6,
        "normalization round trips",
        f"{count} trips, worst recovery gap {worst_gap:.2e}, "
        f"worst normalized trace {worst_trace:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. uniqueness certificates: trivial kernel exactly on the valid ranges
# ---------------------------------------------------------------------------


def test_criterion_07_uniqueness():
    degenerate = []
    for kind, params in GRID:
        alg = algebra(kind, **params)
        cert = uniqueness_certificate(alg)
        if alg.normalizable:
            assert cert["kernel_dim"] == 0 and cert["unique"], (kind, params)
        else:
            assert cert["kernel_dim"] > 0, (kind, params)
            degenerate.append((kind, params))
    assert degenerate == [("grassmannian", {"p": 1, "q": 1})]
    announce(7, "uniqueness", "kernel 0 on 24 points, nontrivial only on sl(2)")


# ---------------------------------------------------------------------------
# 8. substitution identities for the symmetric- and antisymmetric-square
#    models, with the honest measured signs on both readings
# ---------------------------------------------------------------------------


def test_criterion_08_substitution_identities():
    rng = np.random.default_rng(8)
    for m in range(3, 7):
        # symmetric-square model: m*T[klpq] + T[qlpk] + T[qkpl] = (m(m+1)-2) F
        alg = algebra("lagrangian", m=m)
        F = rng.uniform(-1.0, 1.0, (m, m, m, m))
        F = 0.25 * (
            F + F.transpose(1, 0, 2, 3) + F.transpose(0, 1, 3, 2) + F.transpose(1, 0, 3, 2)
        )
        F = 0.5 * (F + F.transpose(2, 3, 0, 1))
        gamma = OneCochain(1, lagrangian_gamma_from_coeffs(m, F))
        shift = deformation_delta_kappa0(alg, gamma)
        T4 = expand_pairs(trace_kappa0(alg, shift), m, 1)
        comb = (
            m * np.einsum("klpq->pqkl", T4)
            + np.einsum("qlpk->pqkl", T4)
            + np.einsum("qkpl->pqkl", T4)
        )
        scale = max(1.0, float(np.abs(F).max()))
        assert np.abs(comb - (m * (m + 1) - 2.0) * F).max() <= 1e-12 * scale, m
        # normalized reading (traces taken of -shift) flips the sign wholesale
        T4b = expand_pairs(trace_kappa0(alg, TwoCochain(0, -shift.data)), m, 1)
        comb_bar = (
            m * np.einsum("klpq->pqkl", T4b)
            + np.einsum("qlpk->pqkl", T4b)
            + np.einsum("qkpl->pqkl", T4b)
        )
        assert np.abs(comb_bar - (2.0 - m * (m + 1)) * F).max() <= 1e-12 * scale, m

        # antisymmetric-square model carries the opposite third-term sign:
        # m*T[klpq] + T[qlpk] - T[qkpl] = (2 - m(m-1)) F
        alg = algebra("spinorial", m=m)
        F = rng.uniform(-1.0, 1.0, (m, m, m, m))
        F = 0.25 * (
            F - F.transpose(1, 0, 2, 3) - F.transpose(0, 1, 3, 2) + F.transpose(1, 0, 3, 2)
        )
        F = 0.5 * (F + F.transpose(2, 3, 0, 1))
        gamma = OneCochain(1, spinorial_gamma_from_coeffs(m, F))
        T4 = expand_pairs(
            trace_kappa0(alg, deformation_delta_kappa0(alg, gamma)), m, -1
        )
        comb = (
            m * np.einsum("klpq->pqkl", T4)
            + np.einsum("qlpk->pqkl", T4)
            - np.einsum("qkpl->pqkl", T4)
        )
        scale = max(1.0, float(np.abs(F).max()))
        assert np.abs(comb - (2.0 - m * (m - 1)) * F).max() <= 1e-12 * scale, m
    announce(8, "substitution identities", "both models, m = 3..6, both readings")


# ---------------------------------------------------------------------------
# 9. constant-curvature spot values, closed form and oracle
# ---------------------------------------------------------------------------


def test_criterion_09_constant_curvature_spot_values():
    for m in (3, 4, 5):
        alg = algebra("conformal", m=m)
        k0 = curvature_from_riemann(alg, constant_curvature(m))
        for out in (gamma_closed_form(alg, k0), oracle_gamma(alg, k0)):
            np.testing.assert_allclose(out.data, -0.5 * np.eye(m), atol=1e-12)
    for q in (2, 3, 4):
        alg = algebra("projective", q=q)
        k0 = curvature_from_riemann(alg, constant_curvature(q))
        for out in (gamma_closed_form(alg, k0), oracle_gamma(alg, k0)):
            np.testing.assert_allclose(out.data, np.eye(q), atol=1e-12)
    announce(9, "spot values", "-I/2 and +I confirmed by both routes")


# ---------------------------------------------------------------------------
# 10. fiber constancy with harmonic torsion, and exactly trace-free shifts
#     from slot-exchange symmetric deformations
# ---------------------------------------------------------------------------

# grid points whose harmonic torsion space at grade -1 is nonzero
TORSION_WITNESSES = {
    ("grassmannian", (2, 3)),
    ("grassmannian", (2, 4)),
    ("grassmannian", (3, 3)),
    ("grassmannian", (3, 4)),
    ("grassmannian", (4, 4)),
    ("lagrangian", (3,)),
    ("lagrangian", (4,)),
    ("lagrangian", (5,)),
    ("lagrangian", (6,)),
    ("spinorial", (5,)),
    ("spinorial", (6,)),
}


def test_criterion_10_fiber_constancy_and_g0_traces():
    worst = 0.0
    for idx, (kind, params) in enumerate(GRID):
        alg = algebra(kind, **params)
        if not alg.normalizable:
            continue
        n, n0, n1 = alg.dims
        rng = np.random.default_rng([10, idx])
        km1 = harmonic_sampler(alg, -1)(rng)
        key = (kind, tuple(params[k] for k in sorted(params)))
        if key in TORSION_WITNESSES:
            assert np.abs(km1.data).max() > 1e-3, key
        else:
            assert np.abs(km1.data).max() <= 1e-12, key
        k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
        tau = rng.uniform(-1.0, 1.0, n1)
        rep = fiber_constancy_check(alg, k0, km1, tau)
        assert rep["passed"], (kind, params)
        res = rep["residual"] / max(1.0, rep["scale"])
        assert res <= 1e-12, (kind, params, res)
        worst = max(worst, res)
    for kind, params in GRID:
        alg = algebra(kind, **params)
        rng = np.random.default_rng(1040)
        if kind in ("grassmannian", "projective"):
            n = alg.dims[0]
            A = rng.uniform(-1.0, 1.0, (n, n))
            gamma = OneCochain(1, 0.5 * (A + A.T))
        else:
            gamma = random_gamma(alg, rng)
        shift = deformation_delta_kappa0(alg, gamma)
        assert np.abs(ref_trace_g0(alg, shift)).max() == 0.0, (kind, params)
    announce(
        10,
        "fiber constancy + trace-free shifts",
        f"worst fiber residual {worst:.2e}, symmetric shifts exactly trace-free",
    )


# ---------------------------------------------------------------------------
# 11. the CLI verification suite passes and is byte-deterministic
# ---------------------------------------------------------------------------


def test_criterion_11_cli_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "verify1.json", tmp_path / "verify2.json"
    assert cli_main(["verify", "--samples", "2", "--output", str(out1)]) == 0
    assert cli_main(["verify", "--samples", "2", "--output", str(out2)]) == 0
    blob1, blob2 = out1.read_bytes(), out2.read_bytes()
    assert blob1 == blob2
    report = json.loads(blob1)
    assert report["all_passed"] is True
    assert len(report["points"]) == 17
    assert all(point["passed"] for point in report["points"])
    announce(11, "CLI verify", "17 points pass, two runs byte-identical")
