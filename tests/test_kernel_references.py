"""Vectorised kernels against the loop code they replaced.

Each reference below is the earlier implementation, kept verbatim: the
per-basis-vector Jacobi loop, the unoptimized automorphism contraction, the
full-matrix complementarity and cohomology ranks, the column-by-column
g_0-trace map, the loop-built d and d* matrices, the whole-matrix SVD rank,
the whole-matrix oracle solve and the dense-pinv harmonic sampler.  Structure constants are dyadic rationals, so wherever the
arithmetic is exact the two must agree bit for bit; the automorphism
residual sums random floats in a new order and gets a bound instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import GRID, VERIFY_GRID, algebra, grid_id

from ahsnormal.graded_algebra import jacobi_residual
from ahsnormal.normalization import (
    NonUniquenessError,
    deformation_delta_kappa0,
    oracle_gamma,
    trace_g0,
    trace_g0_map_matrix,
    trace_kappa0,
    trace_map_matrix,
)
from ahsnormal.prolongation_model import FrameChange, automorphism_residual
from ahsnormal.spencer import (
    Blocks,
    OneCochain,
    Triplets,
    TwoCochain,
    _pair_cols,
    _pair_rows,
    _rank,
    _value_dim,
    cohomology_dim,
    complementarity_check,
    d_matrix,
    d_triplets,
    dstar_matrix,
    dstar_triplets,
)
from ahsnormal.testkit import _block_trace_rows, harmonic_sampler

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


# ---------------------------------------------------------------------------
# block-by-block Spencer linear algebra
# ---------------------------------------------------------------------------

# Verify-grid points small enough for the dense-pinv sampler reference.
SMALL_VERIFY_GRID = [(k, p) for k, p in VERIFY_GRID if algebra(k, **p).n_total <= 55]


def ref_d_matrix(alg, one_grade: int) -> np.ndarray:
    n = alg.dims[0]
    B = alg.block(one_grade, -1)
    nv_o = B.shape[0]
    nv_t = B.shape[2]
    M = np.zeros((n, n, nv_t, n, nv_o))
    for c in range(n):
        for u in range(nv_o):
            M[c, :, :, c, u] += B[u]
            M[:, c, :, c, u] -= B[u]
    return M.reshape(n * n * nv_t, n * nv_o)


def ref_dstar_matrix(alg, two_grade: int) -> np.ndarray:
    n = alg.dims[0]
    Zd = alg.dual_basis()
    B = alg.block(1, two_grade)
    nv_t = B.shape[1]
    nv_o = B.shape[2]
    W = np.einsum("au,ukv->akv", Zd, B)
    M = np.zeros((n, nv_o, n, n, nv_t))
    diag = np.arange(n)
    M[diag, :, :, diag, :] = W.transpose(2, 0, 1)  # M[b, v, a, b, k] = W[a, k, v]
    return M.reshape(n * nv_o, n * n * nv_t)


def ref_svd_rank(A: np.ndarray, tol: float, copies: int = 1) -> int:
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int((s > tol * max(1.0, float(np.abs(A).max())) / np.sqrt(copies)).sum())


def ref_oracle(alg, kappa0, tol=1e-9) -> np.ndarray:
    n, _, n1 = alg.dims
    M = trace_map_matrix(alg)
    s = np.linalg.svd(M, compute_uv=False)
    smax = s[0] if s.size else 0.0
    kernel_dim = int((s <= tol * max(smax, 1.0)).sum())
    if kernel_dim > 0:
        raise NonUniquenessError("degenerate", kernel_dim=kernel_dim)
    b = trace_kappa0(alg, kappa0).reshape(-1)
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    return x.reshape(n, n1)


def ref_harmonic_sampler(alg, grade: int, block_trace_free: bool = False):
    n = alg.dims[0]
    nv = _value_dim(alg, grade)
    D = ref_d_matrix(alg, grade + 1)
    S = ref_dstar_matrix(alg, grade)
    P = np.linalg.pinv(S @ D, rcond=1e-12)

    def harm(vec: np.ndarray) -> np.ndarray:
        return vec - D @ (P @ (S @ vec))

    def swap_cols(M: np.ndarray) -> np.ndarray:
        return M.reshape(M.shape[0], n, n, nv).transpose(0, 2, 1, 3).reshape(M.shape)

    Gp = R = None
    if block_trace_free:
        R = _block_trace_rows(alg, grade)
        G = R - ((R @ D) @ P) @ S
        Gp = np.linalg.pinv(0.5 * (G - swap_cols(G)), rcond=1e-12)

    def draw(rng: np.random.Generator) -> TwoCochain:
        t = rng.uniform(-1.0, 1.0, (n, n, nv))
        t = 0.5 * (t - t.transpose(1, 0, 2))
        h = harm(t.reshape(-1))
        if block_trace_free:
            c = (Gp @ (R @ h)).reshape(n, n, nv)
            c = 0.5 * (c - c.transpose(1, 0, 2))
            h = h - harm(c.reshape(-1))
        return TwoCochain(grade, h.reshape(n, n, nv))

    return draw


def spencer_operators(alg) -> dict[str, np.ndarray]:
    """Dense d halves, alternated d* halves, d* d and the trace map."""
    n = alg.dims[0]
    ops = {"trace_map": trace_map_matrix(alg)}
    for grade in (-1, 0):
        ops[f"d_half_{grade}"] = _pair_rows(Triplets.from_dense(ref_d_matrix(alg, grade + 1)), n).dense()
        ops[f"dstar_half_{grade}"] = _pair_cols(Triplets.from_dense(ref_dstar_matrix(alg, grade)), n).dense()
        ops[f"dstar_d_{grade}"] = ref_dstar_matrix(alg, grade) @ ref_d_matrix(alg, grade + 1)
    return ops


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_triplets_dense_forms_match_loop_builders(kind, params):
    alg = algebra(kind, **params)
    for grade in (0, 1):
        ref = ref_d_matrix(alg, grade)
        np.testing.assert_array_equal(d_triplets(alg, grade).dense(), ref)
        np.testing.assert_array_equal(d_matrix(alg, grade), ref)
    for grade in (-1, 0):
        ref = ref_dstar_matrix(alg, grade)
        np.testing.assert_array_equal(dstar_triplets(alg, grade).dense(), ref)
        np.testing.assert_array_equal(dstar_matrix(alg, grade), ref)


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_blocks_partition_the_nonzeros(kind, params):
    alg = algebra(kind, **params)
    for name, A in spencer_operators(alg).items():
        covered = np.zeros(A.shape, dtype=int)
        row_seen = np.zeros(A.shape[0], dtype=int)
        col_seen = np.zeros(A.shape[1], dtype=int)
        for rows, cols, vals in Blocks.split(Triplets.from_dense(A)).groups:
            np.testing.assert_array_equal(A[rows[:, :, None], cols[:, None, :]], vals, err_msg=name)
            for r, c in zip(rows, cols):
                covered[np.ix_(r, c)] += 1
                row_seen[r] += 1
                col_seen[c] += 1
        assert row_seen.max(initial=0) <= 1 and col_seen.max(initial=0) <= 1, name
        assert not A[covered == 0].any(), name


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_block_rank_matches_whole_matrix_svd(kind, params):
    alg = algebra(kind, **params)
    n, n0, n1 = alg.dims
    ops = spencer_operators(alg)
    ops["ad"] = alg.block(1, -1).reshape(n1, n * n0).T
    for name, A in ops.items():
        for copies in (1, 2):
            assert _rank(Triplets.from_dense(A), 1e-9, copies) == ref_svd_rank(A, 1e-9, copies), name


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_block_oracle_matches_lstsq(kind, params):
    alg = algebra(kind, **params)
    n, n0, _ = alg.dims
    k0 = TwoCochain(0, np.random.default_rng(11).uniform(-1.0, 1.0, (n, n, n0)))
    if not alg.normalizable:
        with pytest.raises(NonUniquenessError) as ref:
            ref_oracle(alg, k0)
        with pytest.raises(NonUniquenessError) as got:
            oracle_gamma(alg, k0)
        assert got.value.kernel_dim == ref.value.kernel_dim > 0
        return
    assert np.abs(oracle_gamma(alg, k0).gamma.data - ref_oracle(alg, k0)).max() <= 1e-12


@pytest.mark.parametrize("kind,params", SMALL_VERIFY_GRID, ids=grid_id)
def test_block_pinv_sampler_matches_dense_pinv(kind, params):
    alg = algebra(kind, **params)
    for grade, trace_free in ((-1, False), (0, False), (0, kind == "grassmannian")):
        got = harmonic_sampler(alg, grade, block_trace_free=trace_free)(np.random.default_rng(5))
        ref = ref_harmonic_sampler(alg, grade, block_trace_free=trace_free)(np.random.default_rng(5))
        assert np.abs(got.data - ref.data).max() <= 1e-12
