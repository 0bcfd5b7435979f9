"""Vectorised kernels against the loop code they replaced.

Each reference below is the earlier implementation, kept verbatim: the
per-basis-vector Jacobi loop and the grade-block Jacobi contraction, the
unoptimized automorphism contraction, the full-matrix complementarity and
cohomology ranks, the hand-written z_drop contraction, the loop-built d
and d* matrices, the unoptimized d* contraction, the dense einsum trace of
kappa0, the whole-matrix SVD rank, the whole-matrix oracle solve, the
dense-pinv harmonic sampler, scipy's matrix exponential, the 2-d
``np.nonzero`` read of a dense matrix, the pair-by-pair matrix-realization
cross-check, the grassmannian builder that put the nonzeros of dense
commutator blocks, the second-torsion model on the negated dense tensor
and, from conftest, the block split with its numbering tables.
Structure constants are dyadic rationals, so wherever the arithmetic is
exact the two must agree bit for bit; the automorphism residual sums random
floats in a new order and the exponential is a new algorithm, so those get
bounds instead.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    GRID,
    SMALL,
    VERIFY_GRID,
    algebra,
    grid_id,
    ref_blocks_split,
    ref_dense_C,
    triplets_from_dense,
    with_dense_C,
    z_flips,
)

from ahsnormal.graded_algebra import (
    CHUNK_ENTRIES,
    GradedLieAlgebra,
    _build_grassmannian,
    _put_brackets,
    _structure,
    cross_check_matrix_rep,
    jacobi_residual,
    matrix_representation,
)
from ahsnormal.normalization import (
    NonUniquenessError,
    oracle_gamma,
    trace_kappa0,
    trace_map_matrix,
)
from ahsnormal.prolongation_model import (
    FrameChange,
    automorphism_residual,
    model_second_torsion,
    z_drop_residual,
)
from ahsnormal.spencer import (
    Blocks,
    Triplets,
    TwoCochain,
    _pair_cols,
    _value_dim,
    cohomology_dim,
    complementarity_check,
    d_matrix,
    d_triplets,
    dstar_matrix,
    dstar_triplets,
    spencer_dstar,
)
from ahsnormal.testkit import _block_trace_rows, harmonic_sampler

# Grid points small enough for the O(N^5) references; sl(2) is among them.
REF_GRID = [(k, p) for k, p in GRID if algebra(k, **p).n_total <= 55]

# Pair kinds beyond GRID.  ref_jacobi takes 9-69 s per call there, so they
# are checked against ref_jacobi_blocks (at most 3 s), which ref_jacobi
# checks on REF_GRID.
LARGE_PAIR = [(kind, {"m": m}) for kind in ("lagrangian", "spinorial") for m in (7, 8)]

# |optimized - reference| for the automorphism residual.  Measured on every
# GRID point up to N = 78 with a random frame change: residuals reach 2e-12
# and the two contraction orders differ by at most 2e-15.
AUTOMORPHISM_BOUND = 1e-12


def ref_jacobi(alg) -> float:
    C = ref_dense_C(alg)
    worst = 0.0
    for i in range(alg.n_total):
        t1 = np.einsum("jm,mkl->jkl", C[i], C)
        t2 = np.einsum("jkm,ml->jkl", C, C[:, i, :])
        t3 = np.einsum("km,mjl->kjl", C[:, i, :], C).transpose(1, 0, 2)
        worst = max(worst, float(np.abs(t1 + t2 + t3).max()))
    return worst


def ref_jacobi_blocks(alg) -> float:
    grades = (-1, 0, 1)
    sl = {g: alg.grade_slice(g) for g in grades}
    C = ref_dense_C(alg)
    worst = 0.0
    for a in grades:
        for b in grades:
            for c in grades:
                d = a + b + c
                if abs(d) > 1:
                    continue
                total = 0.0
                # [[i,j],k], [[j,k],i], [[k,i],j], each put back in (i, j, k, l) order
                for x, y, w, perm in ((a, b, c, (0, 1, 2, 3)), (b, c, a, (2, 0, 1, 3)),
                                      (c, a, b, (1, 2, 0, 3))):
                    if abs(x + y) > 1:
                        continue
                    inner = C[sl[x], sl[y], sl[x + y]]
                    outer = C[sl[x + y], sl[w], sl[d]]
                    total = total + np.tensordot(inner, outer, axes=(2, 0)).transpose(perm)
                worst = max(worst, float(np.abs(total).max()))
    return worst


def ref_automorphism(alg, fc) -> float:
    N = alg.n_total
    B = np.zeros((N, N))
    for grade, mat in ((-1, fc.ad_m1), (0, fc.ad_0), (1, fc.ad_p1)):
        s = alg.grade_slice(grade)
        B[s, s] = mat
    C = ref_dense_C(alg)
    lhs = np.einsum("ui,vj,uvw->ijw", B, B, C)
    rhs = np.einsum("ijk,wk->ijw", C, B)
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


def sign_flipped(alg):
    """A copy with the first nonzero structure constant negated, as
    ``verify --debug-mutate`` does; antisymmetry and grading survive."""
    C = ref_dense_C(alg)
    i, j, k = (int(v) for v in np.argwhere(C != 0.0)[0])
    C[i, j, k] *= -1.0
    C[j, i, k] *= -1.0
    return with_dense_C(alg, C)


@pytest.mark.parametrize("kind,params", REF_GRID, ids=grid_id)
def test_jacobi_matches_loop_reference(kind, params):
    alg = algebra(kind, **params)
    assert jacobi_residual(alg) == ref_jacobi(alg) == 0.0
    bad = sign_flipped(alg)
    got = jacobi_residual(bad)
    assert got == ref_jacobi(bad) == ref_jacobi_blocks(bad)
    assert got > 0.0


@pytest.mark.parametrize("kind,params", LARGE_PAIR, ids=grid_id)
def test_jacobi_matches_block_reference_beyond_grid(kind, params):
    alg = algebra(kind, **params)
    assert jacobi_residual(alg) == ref_jacobi_blocks(alg) == 0.0
    bad = sign_flipped(alg)
    got = jacobi_residual(bad)
    assert got == ref_jacobi_blocks(bad)
    assert got > 0.0


@pytest.mark.parametrize("kind,params", REF_GRID, ids=grid_id)
def test_automorphism_matches_unoptimized_einsum(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(7)
    fc = FrameChange.from_g0(alg, rng.uniform(-1.0, 1.0, alg.dims[1]),
                             rng.uniform(-1.0, 1.0, alg.dims[2]))
    assert abs(automorphism_residual(alg, fc) - ref_automorphism(alg, fc)) <= AUTOMORPHISM_BOUND
    assert automorphism_residual(alg, FrameChange.from_g0(alg, np.zeros(alg.dims[1]))) == 0.0


@pytest.mark.parametrize("kind,params", REF_GRID, ids=grid_id)
def test_pair_row_ranks_match_full_matrices(kind, params):
    alg = algebra(kind, **params)
    for grade in (-1, 0):
        assert complementarity_check(alg, grade) == ref_complementarity(alg, grade)
    for level in ("H11", "H21"):
        assert cohomology_dim(alg, level) == ref_cohomology(alg, level)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_h11_refuses_an_ad_image_that_is_not_closed(kind, params):
    # ref_cohomology forgave |d ad| up to 1e-10; cohomology_dim forgives nothing,
    # not even the first structure constant off by 2^-40 of itself
    alg = algebra(kind, **params)
    for bad in (sign_flipped(alg), nudged(alg)):
        with pytest.raises(AssertionError, match="not d-closed"):
            cohomology_dim(bad, "H11")


def ref_z_drop(alg) -> float:
    cross = np.einsum("uic,cjk->uijk", alg.block(1, -1), alg.block(0, -1))
    return float(np.abs(cross - cross.transpose(0, 2, 1, 3)).max())


def nudged(alg):
    """A copy with the first nonzero structure constant off by 2^-40 of itself."""
    C = ref_dense_C(alg)
    i, j, k = np.argwhere(C != 0.0)[0]
    C[i, j, k] *= 1.0 + 2.0**-40
    C[j, i, k] *= 1.0 + 2.0**-40
    return with_dense_C(alg, C)


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_z_drop_matches_einsum(kind, params):
    alg = algebra(kind, **params)
    assert z_drop_residual(alg) == ref_z_drop(alg)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_z_drop_matches_einsum_on_broken_brackets(kind, params):
    # every [z, x] sign flip and the 2^-40 nudge: d ad(g_1) on triplets sums
    # the same dyadic terms as the einsum, so the residuals agree bit for bit
    alg = algebra(kind, **params)
    broken = [*z_flips(alg), nudged(alg)]
    got = [z_drop_residual(b) for b in broken]
    assert got == [ref_z_drop(b) for b in broken]
    assert max(got) > 0.0


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


def ref_spencer_dstar(alg, phi) -> np.ndarray:
    Zd = alg.dual_basis()
    B = alg.block(1, phi.grade)
    return np.einsum("au,abk,ukv->bv", Zd, phi.data, B)


def ref_svd_rank(A: np.ndarray, tol: float, copies: int = 1) -> int:
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int((s > tol * max(1.0, float(np.abs(A).max())) / np.sqrt(copies)).sum())


def ref_oracle(alg, kappa0, tol=1e-9) -> np.ndarray:
    n, _, n1 = alg.dims
    M = trace_map_matrix(alg).dense()
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
    ops = {"trace_map": trace_map_matrix(alg).dense()}
    for grade in (-1, 0):
        ops[f"d_half_{grade}"] = _pair_cols(triplets_from_dense(ref_d_matrix(alg, grade + 1)).T, n).T.dense()
        ops[f"dstar_half_{grade}"] = _pair_cols(triplets_from_dense(ref_dstar_matrix(alg, grade)), n).dense()
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


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_dstar_on_triplets_matches_einsum_bitwise(kind, params):
    alg = algebra(kind, **params)
    n = alg.dims[0]
    rng = np.random.default_rng(13)
    for grade in (-1, 0):
        for _ in range(3):
            phi = TwoCochain(grade, rng.uniform(-1.0, 1.0, (n, n, alg.dims[grade + 1])))
            got = spencer_dstar(alg, phi)
            assert got.grade == grade + 1
            assert got.data.tobytes() == ref_spencer_dstar(alg, phi).tobytes()


def ref_trace_kappa0(alg, kappa0) -> np.ndarray:
    act = alg.block(0, -1)
    return np.einsum("iac,cbi->ab", kappa0.data, act)


@pytest.mark.parametrize("kind,params", GRID + LARGE_PAIR[1::2], ids=grid_id)
def test_sparse_trace_matches_einsum_bitwise(kind, params):
    alg = algebra(kind, **params)
    n, n0, _ = alg.dims
    rng = np.random.default_rng(29)
    inputs = [TwoCochain(0, np.zeros((n, n, n0)))]
    inputs += [TwoCochain(0, 10.0 ** e * rng.uniform(-1.0, 1.0, (n, n, n0))) for e in range(-3, 4)]
    for kappa0 in inputs:
        got = trace_kappa0(alg, kappa0)
        np.testing.assert_array_equal(got.view(np.int64), ref_trace_kappa0(alg, kappa0).view(np.int64))


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_blocks_partition_the_nonzeros(kind, params):
    alg = algebra(kind, **params)
    for name, A in spencer_operators(alg).items():
        covered = np.zeros(A.shape, dtype=int)
        row_seen = np.zeros(A.shape[0], dtype=int)
        col_seen = np.zeros(A.shape[1], dtype=int)
        for rows, cols, vals in Blocks.split(triplets_from_dense(A)).groups:
            np.testing.assert_array_equal(A[rows[:, :, None], cols[:, None, :]], vals, err_msg=name)
            for r, c in zip(rows, cols):
                covered[np.ix_(r, c)] += 1
                row_seen[r] += 1
                col_seen[c] += 1
        assert row_seen.max(initial=0) <= 1 and col_seen.max(initial=0) <= 1, name
        assert not A[covered == 0].any(), name


def assert_split_as_reference(A: Triplets, name: str = "") -> None:
    """Blocks.split and ref_blocks_split give the same groups in the same
    order; the order fixes the pinv digits, and so the reports."""
    got, ref = Blocks.split(A).groups, ref_blocks_split(A).groups
    assert len(got) == len(ref), name
    for g, r in zip(got, ref):
        assert all(np.array_equal(x, y) for x, y in zip(g, r)), name


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_block_split_matches_its_reference(kind, params):
    alg = algebra(kind, **params)
    ops = {name: triplets_from_dense(A) for name, A in spencer_operators(alg).items()}
    for grade in (-1, 0):
        D, S = d_triplets(alg, grade + 1), dstar_triplets(alg, grade)
        ops |= {f"d_{grade}": D, f"dstar_{grade}": S, f"d_pairs_{grade}": _pair_cols(D.T, alg.dims[0])}
    for name, A in ops.items():
        assert_split_as_reference(A, name)


def test_block_split_matches_its_reference_on_random_matrices():
    rng = np.random.default_rng(29)
    cases = [np.zeros((3, 4)), np.zeros((0, 0)), np.zeros((0, 5)), np.eye(4)]
    for _ in range(100):
        shape = tuple(rng.integers(1, 30, 2))
        A = rng.integers(-3, 4, shape) * (rng.random(shape) < rng.uniform(0.02, 0.3))
        A[rng.integers(shape[0])] = 0  # an empty row and an empty column
        A[:, rng.integers(shape[1])] = 0
        cases.append(A.astype(float))
    for i, A in enumerate(cases):
        T = triplets_from_dense(A)
        order = rng.permutation(T.vals.size)  # the split must not read the entry order
        for B in (T, Triplets(T.rows[order], T.cols[order], T.vals[order], T.shape)):
            assert_split_as_reference(B, f"case {i}")


@pytest.mark.parametrize("kind,params", VERIFY_GRID, ids=grid_id)
def test_block_rank_matches_whole_matrix_svd(kind, params):
    # each operator as the library ranks it (a < b halves, triplets), then in full
    alg = algebra(kind, **params)
    n, n0, n1 = alg.dims
    M = trace_map_matrix(alg)
    ad = alg.block(1, -1).reshape(n1, n * n0).T
    ranked = {"trace_map": (M, M.dense()), "ad": (triplets_from_dense(ad), ad)}
    for grade in (-1, 0):
        nv = alg.dims[grade + 1]
        D = ref_d_matrix(alg, grade + 1)
        S = ref_dstar_matrix(alg, grade)
        S_swapped = S.reshape(S.shape[0], n, n, nv).transpose(0, 2, 1, 3).reshape(S.shape)
        D_half = _pair_cols(triplets_from_dense(D).T, n).T
        S_half = _pair_cols(triplets_from_dense(S), n)
        ranked[f"d_half_{grade}"] = (D_half, D)
        ranked[f"dstar_half_{grade}"] = (S_half, 0.5 * (S - S_swapped))
        ranked[f"dstar_d_{grade}"] = (triplets_from_dense(S) @ triplets_from_dense(D), S @ D)
    for name, (part, full) in ranked.items():
        assert Blocks.split(part).rank() == ref_svd_rank(full, 1e-9), name


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
    assert np.abs(oracle_gamma(alg, k0).data - ref_oracle(alg, k0)).max() <= 1e-12


@pytest.mark.parametrize("kind,params", SMALL_VERIFY_GRID, ids=grid_id)
def test_block_pinv_sampler_matches_dense_pinv(kind, params):
    alg = algebra(kind, **params)
    for grade, trace_free in ((-1, False), (0, False), (0, kind == "grassmannian")):
        got = harmonic_sampler(alg, grade, block_trace_free=trace_free)(np.random.default_rng(5))
        ref = ref_harmonic_sampler(alg, grade, block_trace_free=trace_free)(np.random.default_rng(5))
        assert np.abs(got.data - ref.data).max() <= 1e-12


# ---------------------------------------------------------------------------
# the matrix exponential of FrameChange.from_g0
# ---------------------------------------------------------------------------

# Max-entry relative errors measured on the draws below: scipy.linalg.expm is
# up to 1.5e-13 from the extended-precision Taylor sum (and up to 3.1e-13
# from a 40-digit mpmath exponential on other draws), while the package's
# exponential stays within 2.3e-15 of that sum.  So the tight bound is taken
# against the extended-precision reference, and scipy gets a looser one.
SCIPY_EXPM_BOUND = 1e-12
EXTENDED_EXPM_BOUND = 1e-14


def ref_expm_extended(M: np.ndarray) -> np.ndarray:
    """The Taylor series of exp(M), unscaled, summed in np.longdouble."""
    X = np.asarray(M, dtype=np.longdouble)
    E = term = np.eye(len(X), dtype=np.longdouble)
    k = 0
    while np.abs(term).max() > 1e-22 * np.abs(E).max():
        k += 1
        term = term @ X / k
        E = E + term
    return E.astype(float)


def from_g0_cases(alg, seed: int):
    """(exp(ad A) as from_g0 returns it, ad A) per graded piece, three draws of A."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        A = rng.uniform(-1.0, 1.0, alg.dims[1])
        fc = FrameChange.from_g0(alg, A)
        for grade, got in zip((-1, 0, 1), (fc.ad_m1, fc.ad_0, fc.ad_p1)):
            yield got, np.einsum("c,cij->ji", A, alg.block(0, grade))


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_from_g0_exponential_matches_scipy_expm(kind, params):
    for got, ad in from_g0_cases(algebra(kind, **params), 17):
        assert relative_error(got, scipy.linalg.expm(ad)) <= SCIPY_EXPM_BOUND


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is not extended")
@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_from_g0_exponential_matches_extended_taylor(kind, params):
    for got, ad in from_g0_cases(algebra(kind, **params), 17):
        assert relative_error(got, ref_expm_extended(ad)) <= EXTENDED_EXPM_BOUND


# ---------------------------------------------------------------------------
# the flat nonzero scan of triplets_from_dense and the batched matrix cross-check
# ---------------------------------------------------------------------------

# Points beyond GRID for the cross-check: the pair kinds at m = 7, 8 and
# conformal and projective past their GRID range.
CROSS_CHECK_BEYOND = LARGE_PAIR + [("conformal", {"m": m}) for m in (7, 8)] + [
    ("projective", {"q": q}) for q in (5, 6, 7)
]


def ref_from_dense(A: np.ndarray) -> Triplets:
    rows, cols = np.nonzero(A)
    return Triplets(rows, cols, A[rows, cols], A.shape)


def ref_cross_check_matrix_rep(alg) -> dict:
    rep = matrix_representation(alg)
    scalars: dict[str, float] = {}
    refs: dict[tuple[int, int], tuple[float, float]] = {}
    worst = 0.0
    idx = {g: range(alg.grade_slice(g).start, alg.grade_slice(g).stop) for g in (-1, 0, 1)}
    C = ref_dense_C(alg)
    for gx in (-1, 0, 1):
        for gy in (-1, 0, 1):
            for i in idx[gx]:
                for j in idx[gy]:
                    if j <= i:
                        continue
                    table = np.einsum("k,kuv->uv", C[i, j], rep)
                    mat = rep[i] @ rep[j] - rep[j] @ rep[i]
                    tmax, mmax = np.abs(table).max(), np.abs(mat).max()
                    if tmax == 0.0 and mmax == 0.0:
                        continue
                    if tmax == 0.0 or mmax == 0.0:
                        worst = max(worst, tmax, mmax)
                        continue
                    key = (gx, gy)
                    if key not in refs:
                        flat = np.abs(table).argmax()
                        refs[key] = (mat.flat[flat], table.flat[flat])
                        scalars[f"({gx},{gy})"] = mat.flat[flat] / table.flat[flat]
                    m0, t0 = refs[key]
                    worst = max(worst, float(np.abs(mat * t0 - table * m0).max()))
    return {"sector_scalars": scalars, "max_discrepancy": worst}


def assert_same_triplets(got: Triplets, ref: Triplets) -> None:
    assert got.shape == ref.shape
    for name in ("rows", "cols", "vals"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_flat_nonzero_scan_matches_nonzero_on_operators(kind, params):
    alg = algebra(kind, **params)
    for grade in (0, 1):
        A = d_matrix(alg, grade)
        assert_same_triplets(triplets_from_dense(A), ref_from_dense(A))
    for grade in (-1, 0):
        A = dstar_matrix(alg, grade)
        assert_same_triplets(triplets_from_dense(A), ref_from_dense(A))
    A = trace_map_matrix(alg).dense()
    assert_same_triplets(triplets_from_dense(A), ref_from_dense(A))
    # the structure constants are the C-order nonzeros of the dense tensor
    N = alg.n_total
    assert_same_triplets(alg.C, ref_from_dense(ref_dense_C(alg).reshape(N * N, N)))


@pytest.mark.parametrize(
    "shape",
    [(0, 5), (5, 0), (0, 0), (1, 1), (3, CHUNK_ENTRIES // 3 + 1), (2, CHUNK_ENTRIES),
     (CHUNK_ENTRIES // 64 + 1, 64), (300, 701)],
    ids=str,
)
def test_flat_nonzero_scan_matches_nonzero_on_random_input(shape):
    rng = np.random.default_rng(sum(shape))
    A = np.where(rng.random(shape) < 0.01, rng.integers(-4, 5, shape) / 4.0, 0.0)
    special = rng.random(shape)
    A[special < 0.005] = -0.0
    A[special > 0.998] = np.nan
    for view in (A, A.T, np.asfortranarray(A), A[::-1, ::2]):
        assert_same_triplets(triplets_from_dense(view), ref_from_dense(view))


def mutated_per_sector(alg):
    """Two copies per sector (g_x <= g_y): one with the sector's first
    nonzero structure constant negated, antisymmetry kept, and one with
    that bracket [b_i, b_j] dropped, so the table side vanishes alone.
    Then one copy whose realization of the last g_0 basis element is zero,
    so the matrix side vanishes alone."""
    dense = ref_dense_C(alg)
    for gx in (-1, 0, 1):
        for gy in range(gx, 2):
            sx, sy = alg.grade_slice(gx), alg.grade_slice(gy)
            nz = np.argwhere(dense[sx, sy] != 0.0)
            if nz.size == 0:
                continue
            i, j, k = nz[0] + (sx.start, sy.start, 0)
            C = dense.copy()
            C[i, j, k] *= -1.0
            C[j, i, k] *= -1.0
            yield (gx, gy, "flip"), with_dense_C(alg, C)
            C = dense.copy()
            C[i, j] = C[j, i] = 0.0
            yield (gx, gy, "drop"), with_dense_C(alg, C)
    blocks = {name: B.copy() for name, B in alg.g0_blocks.items()}
    for B in blocks.values():
        B[-1] = 0.0
    yield (0, 0, "realization"), dataclasses.replace(alg, g0_blocks=blocks)


@pytest.mark.parametrize("kind,params", GRID + CROSS_CHECK_BEYOND, ids=grid_id)
def test_batched_cross_check_matches_pair_loop(kind, params):
    alg = algebra(kind, **params)
    got, ref = cross_check_matrix_rep(alg), ref_cross_check_matrix_rep(alg)
    assert got == ref and list(got["sector_scalars"]) == list(ref["sector_scalars"])
    assert got["max_discrepancy"] == 0.0


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_batched_cross_check_matches_pair_loop_on_mutations(kind, params):
    alg = algebra(kind, **params)
    for case, bad in mutated_per_sector(alg):
        got = cross_check_matrix_rep(bad)
        assert got == ref_cross_check_matrix_rep(bad), case
        # in sl(2) each sector holds one bracket, which a sector scalar absorbs
        assert got["max_discrepancy"] > 0.0 or (alg.n_total == 3 and case[2] == "flip"), case


# ---------------------------------------------------------------------------
# the grassmannian builder against its dense-block predecessor
# ---------------------------------------------------------------------------


def ref_put_block(ent: list, D: np.ndarray, i0: int, j0: int, k0: int) -> None:
    i, j, k = np.nonzero(D)
    _put_brackets(ent, i0 + i, j0 + j, k0 + k, D[i, j, k])


def ref_build_grassmannian(p: int, q: int) -> GradedLieAlgebra:
    n = p * q
    n0 = p * p + q * q - 1
    N = 2 * n + n0

    labels = [f"x^{a + 1}_{i + 1}" for a in range(p) for i in range(q)]
    g0_labels: list[str] = []
    A_mats = []
    D_mats = []
    off_p = [(u, v) for u in range(p) for v in range(p) if u != v]
    off_q = [(u, v) for u in range(q) for v in range(q) if u != v]
    for name, off in (("a", off_p), ("d", off_q)):
        for u, v in off:
            A, D = np.zeros((p, p)), np.zeros((q, q))
            (A if name == "a" else D)[v, u] = 1.0
            A_mats.append(A)
            D_mats.append(D)
            g0_labels.append(f"{name}^{u + 1}_{v + 1}")
    for k in range(p + q - 1):
        A = np.zeros((p, p))
        D = np.zeros((q, q))
        if k < p:
            A[k, k] = 1.0
        else:
            D[k - p, k - p] = 1.0
        if k + 1 < p:
            A[k + 1, k + 1] = -1.0
        else:
            D[k + 1 - p, k + 1 - p] = -1.0
        A_mats.append(A)
        D_mats.append(D)
        g0_labels.append(f"H{k + 1}")
    labels += g0_labels
    labels += [f"z^{i + 1}_{a + 1}" for a in range(p) for i in range(q)]

    A_mats = np.array(A_mats)
    D_mats = np.array(D_mats)
    ou, ov = np.array(off_p, dtype=np.intp).reshape(-1, 2).T
    du, dv = np.array(off_q, dtype=np.intp).reshape(-1, 2).T

    def coords(A: np.ndarray, D: np.ndarray) -> np.ndarray:
        diag = np.concatenate([np.diagonal(A, axis1=-2, axis2=-1),
                               np.diagonal(D, axis1=-2, axis2=-1)], axis=-1)
        return np.concatenate([A[..., ov, ou], D[..., dv, du], np.cumsum(diag, axis=-1)[..., :-1]],
                              axis=-1)

    C: list = []
    o0, o1 = n, n + n0
    Ip, Iq = np.eye(p), np.eye(q)

    xz = coords(-np.einsum("ij,rb,ca->aibjrc", Iq, Ip, Ip),
                np.einsum("ab,ri,cj->aibjrc", Ip, Iq, Iq)).reshape(n, n, n0)
    ref_put_block(C, xz, 0, o1, o0)

    act = (np.einsum("ay,cji->caiyj", Ip, D_mats)
           - np.einsum("ij,cay->caiyj", Iq, A_mats)).reshape(n0, n, n)
    ref_put_block(C, act, o0, 0, 0)
    act = (np.einsum("ij,cya->caiyj", Iq, A_mats)
           - np.einsum("ay,cij->caiyj", Ip, D_mats)).reshape(n0, n, n)
    ref_put_block(C, act, o0, o1, o1)

    AA = np.matmul(A_mats[:, None], A_mats[None, :])
    DD = np.matmul(D_mats[:, None], D_mats[None, :])
    G = coords(AA - AA.transpose(1, 0, 2, 3), DD - DD.transpose(1, 0, 2, 3))
    ref_put_block(C, G * np.triu(np.ones((n0, n0)), 1)[:, :, None], o0, o0, o0)

    return GradedLieAlgebra(
        kind="grassmannian",
        params={"p": p, "q": q},
        dims=(n, n0, n),
        labels=labels,
        C=_structure(N, C),
        pairing=np.eye(n),
        g0_blocks={"A": A_mats, "D": D_mats},
        normalizable=p + q >= 3,
        projective_type=(p == 1 and q >= 2),
    )


@pytest.mark.parametrize(
    "p,q", [(p, q) for p in range(1, 7) for q in range(p, 13 - p)], ids=lambda v: str(v)
)
def test_grassmannian_builder_matches_dense_block_reference(p, q):
    got, ref = _build_grassmannian(p, q), ref_build_grassmannian(p, q)
    assert_same_triplets(got.C, ref.C)
    assert not np.any(np.signbit(got.C.vals) != np.signbit(ref.C.vals))
    assert got.labels == ref.labels
    assert got.g0_blocks.keys() == ref.g0_blocks.keys()
    for key, blocks in ref.g0_blocks.items():
        assert got.g0_blocks[key].dtype == blocks.dtype
        np.testing.assert_array_equal(got.g0_blocks[key], blocks)
    assert got.dims == ref.dims and got.normalizable == ref.normalizable
    assert got.projective_type == ref.projective_type
    np.testing.assert_array_equal(got.pairing, ref.pairing)


def test_grassmannian_builder_takes_no_dense_block():
    # the dense-block builder peaks at 94 MB here, its (n0, n0, n0)
    # commutator tensor alone 14 MB; the index rules need about 1.3 MB
    tracemalloc.start()
    try:
        _build_grassmannian(1, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_model_second_torsion_matches_negated_dense_tensor(kind, params):
    # the forced values are C's nonzeros negated; the zeros are +0.0 where
    # the dense negation held -0.0, which np.array_equal does not tell apart
    alg = algebra(kind, **params)
    n, n0, _ = alg.dims
    N2 = n + n0
    rng = np.random.default_rng(71)
    t = TwoCochain(-1, rng.uniform(-1.0, 1.0, (n, n, n)))
    k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
    ref = -ref_dense_C(alg)[:N2, :N2, :N2]
    ref[:n, :n, :n] += t.data
    ref[:n, :n, n:] += k0.data
    got = model_second_torsion(alg, torsion=t, curv0=k0)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(model_second_torsion(alg), -ref_dense_C(alg)[:N2, :N2, :N2])
