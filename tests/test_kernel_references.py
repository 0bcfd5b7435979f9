"""Vectorised kernels against the loop code they replaced.

Each reference below is the earlier implementation, kept verbatim: the
per-basis-vector Jacobi loop, the unoptimized automorphism contraction, the
full-matrix complementarity and cohomology ranks, and the column-by-column
g_0-trace map.  Structure constants are dyadic rationals, so wherever the
arithmetic is exact the two must agree bit for bit; the automorphism
residual sums random floats in a new order and gets a bound instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import GRID, VERIFY_GRID, algebra, grid_id

from ahsnormal.graded_algebra import jacobi_residual
from ahsnormal.normalization import deformation_delta_kappa0, trace_g0, trace_g0_map_matrix
from ahsnormal.prolongation_model import FrameChange, automorphism_residual
from ahsnormal.spencer import (
    OneCochain,
    cohomology_dim,
    complementarity_check,
    d_matrix,
    dstar_matrix,
)

# Grid points small enough for the O(N^5) references; sl(2) is among them.
REF_GRID = [(k, p) for k, p in GRID if algebra(k, **p).n_total <= 55]

# |optimized - reference| for the automorphism residual.  Measured on every
# GRID point up to N = 78 with a random frame change: residuals reach 2e-12
# and the two contraction orders differ by at most 2e-15.
AUTOMORPHISM_BOUND = 1e-12


def ref_jacobi(alg) -> float:
    C = alg.C
    worst = 0.0
    for i in range(alg.n_total):
        t1 = np.einsum("jm,mkl->jkl", C[i], C)
        t2 = np.einsum("jkm,ml->jkl", C, C[:, i, :])
        t3 = np.einsum("km,mjl->kjl", C[:, i, :], C).transpose(1, 0, 2)
        worst = max(worst, float(np.abs(t1 + t2 + t3).max()))
    return worst


def ref_automorphism(alg, fc) -> float:
    N = alg.n_total
    B = np.zeros((N, N))
    for grade, mat in ((-1, fc.ad_m1), (0, fc.ad_0), (1, fc.ad_p1)):
        s = alg.grade_slice(grade)
        B[s, s] = mat
    lhs = np.einsum("ui,vj,uvw->ijw", B, B, alg.C)
    rhs = np.einsum("ijk,wk->ijw", alg.C, B)
    return float(np.abs(lhs - rhs).max())


def ref_rank(A, tol):
    return int(np.linalg.matrix_rank(A, tol=tol * max(1.0, float(np.abs(A).max()))))


def ref_complementarity(alg, two_grade, tol=1e-9) -> dict:
    n = alg.dims[0]
    nv = alg.dims[two_grade + 1]
    total = (n * (n - 1) // 2) * nv
    if total == 0:
        return {"dim_image_d": 0, "dim_kernel_dstar": 0, "intersection_dim": 0,
                "total_dim": 0, "complementary": True}
    D = d_matrix(alg, two_grade + 1)
    S = dstar_matrix(alg, two_grade)
    r_im = ref_rank(D, tol)
    inter = r_im - ref_rank(S @ D, tol)
    S_swapped = S.reshape(S.shape[0], n, n, nv).transpose(0, 2, 1, 3).reshape(S.shape)
    r_ker = total - ref_rank(0.5 * (S - S_swapped), tol)
    return {
        "dim_image_d": r_im,
        "dim_kernel_dstar": r_ker,
        "intersection_dim": inter,
        "total_dim": total,
        "complementary": bool(inter == 0 and r_im + r_ker == total),
    }


def ref_cohomology(alg, level, tol=1e-9) -> int:
    n, n0, n1 = alg.dims
    if level == "H11":
        D = d_matrix(alg, 0)
        ad = alg.block(1, -1).reshape(n1, n * n0).T
        assert np.abs(D @ ad).max() <= 1e-10
        return n * n0 - ref_rank(D, tol) - int(np.linalg.matrix_rank(ad, tol=tol))
    return n * n1 - ref_rank(d_matrix(alg, 1), tol)


def ref_trace_g0_map(alg) -> np.ndarray:
    n, _, n1 = alg.dims
    M = np.zeros((n * n, n * n1))
    for c in range(n):
        for u in range(n1):
            E = np.zeros((n, n1))
            E[c, u] = 1.0
            col = trace_g0(alg, deformation_delta_kappa0(alg, OneCochain(1, E)))
            M[:, c * n1 + u] = col.reshape(-1)
    return M


def sign_flipped(alg):
    """A copy with the first nonzero structure constant negated, as
    ``verify --debug-mutate`` does; antisymmetry and grading survive."""
    C = alg.C.copy()
    i, j, k = (int(v) for v in np.argwhere(C != 0.0)[0])
    C[i, j, k] *= -1.0
    C[j, i, k] *= -1.0
    return dataclasses.replace(alg, C=C)


@pytest.mark.parametrize("kind,params", REF_GRID, ids=grid_id)
def test_jacobi_matches_loop_reference(kind, params):
    alg = algebra(kind, **params)
    assert jacobi_residual(alg) == ref_jacobi(alg) == 0.0
    bad = sign_flipped(alg)
    got = jacobi_residual(bad)
    assert got == ref_jacobi(bad)
    assert got > 0.0


@pytest.mark.parametrize("kind,params", REF_GRID, ids=grid_id)
def test_automorphism_matches_unoptimized_einsum(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(7)
    fc = FrameChange.from_g0(alg, rng.uniform(-1.0, 1.0, alg.dims[1]),
                             rng.uniform(-1.0, 1.0, alg.dims[2]))
    assert abs(automorphism_residual(alg, fc) - ref_automorphism(alg, fc)) <= AUTOMORPHISM_BOUND
    assert automorphism_residual(alg, FrameChange.identity(alg)) == 0.0


@pytest.mark.parametrize("kind,params", REF_GRID, ids=grid_id)
def test_pair_row_ranks_match_full_matrices(kind, params):
    alg = algebra(kind, **params)
    for grade in (-1, 0):
        assert complementarity_check(alg, grade) == ref_complementarity(alg, grade)
    for level in ("H11", "H21"):
        assert cohomology_dim(alg, level) == ref_cohomology(alg, level)


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_trace_g0_map_matches_column_loop(kind, params):
    alg = algebra(kind, **params)
    np.testing.assert_array_equal(trace_g0_map_matrix(alg), ref_trace_g0_map(alg))
