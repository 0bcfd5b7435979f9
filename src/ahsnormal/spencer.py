"""Spencer differential and codifferential on |1|-graded algebras.

Cochains are valued in a single graded piece and defined on g_{-1}:

* one-cochains: elements of g_{-1}^* (x) g_i for i in {0, 1}, stored as an
  array of shape (n, dim g_i) whose row a holds the coordinates of psi(x_a);
* two-cochains: elements of Lambda^2 g_{-1}^* (x) g_j for j in {-1, 0},
  stored fully as an array of shape (n, n, dim g_j) that is alternating in
  the first two indices (enforced by construction).

The differential of a grade-i one-cochain is

    (d psi)(X, Y) = [psi(X), Y] - [psi(Y), X],

and the codifferential of a grade-j two-cochain is

    (d* phi)(X) = sum_a [z^a, phi(x_a, X)],

where {x_a} is the basis of g_{-1} and {z^a} the dual basis of g_1 for the
algebra's invariant pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graded_algebra import GradedLieAlgebra, _pairs

ONE_COCHAIN_GRADES = (0, 1)
TWO_COCHAIN_GRADES = (-1, 0)


@dataclass
class OneCochain:
    """Linear map g_{-1} -> g_grade; row a of ``data`` is psi(x_a)."""

    grade: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.grade not in ONE_COCHAIN_GRADES:
            raise ValueError(f"one-cochain grade must be 0 or 1, got {self.grade}")
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("one-cochain data must be a 2-d array")


@dataclass
class TwoCochain:
    """Alternating map g_{-1} x g_{-1} -> g_grade.

    Construction alternates the first two indices, so any array input is
    projected onto its alternating part.
    """

    grade: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.grade not in TWO_COCHAIN_GRADES:
            raise ValueError(f"two-cochain grade must be -1 or 0, got {self.grade}")
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError("two-cochain data must have shape (n, n, value_dim)")
        self.data = 0.5 * (self.data - self.data.transpose(1, 0, 2))


def _value_dim(alg: GradedLieAlgebra, grade: int) -> int:
    return alg.dims[grade + 1]


def _check_one(alg: GradedLieAlgebra, psi: OneCochain) -> None:
    n = alg.dims[0]
    if psi.data.shape != (n, _value_dim(alg, psi.grade)):
        raise ValueError(
            f"one-cochain shape {psi.data.shape} does not match algebra "
            f"(expected {(n, _value_dim(alg, psi.grade))})"
        )


def _check_two(alg: GradedLieAlgebra, phi: TwoCochain) -> None:
    n = alg.dims[0]
    if phi.data.shape != (n, n, _value_dim(alg, phi.grade)):
        raise ValueError(
            f"two-cochain shape {phi.data.shape} does not match algebra "
            f"(expected {(n, n, _value_dim(alg, phi.grade))})"
        )


def spencer_d(alg: GradedLieAlgebra, psi: OneCochain) -> TwoCochain:
    """Spencer differential (d psi)(X, Y) = [psi(X), Y] - [psi(Y), X]."""
    _check_one(alg, psi)
    B = alg.block(psi.grade, -1)
    half = np.einsum("au,ubk->abk", psi.data, B)
    return TwoCochain(psi.grade - 1, half - half.transpose(1, 0, 2))


def spencer_dstar(alg: GradedLieAlgebra, phi: TwoCochain) -> OneCochain:
    """Spencer codifferential (d* phi)(X) = sum_a [z^a, phi(x_a, X)]."""
    _check_two(alg, phi)
    Zd = alg.dual_basis()
    B = alg.block(1, phi.grade)
    out = np.einsum("au,abk,ukv->bv", Zd, phi.data, B)
    return OneCochain(phi.grade + 1, out)


def d_matrix(alg: GradedLieAlgebra, one_grade: int) -> np.ndarray:
    """Dense matrix of the differential on grade-``one_grade`` one-cochains.

    Rows are indexed by flattened (a, b, k) two-cochain slots, columns by
    flattened (c, u) one-cochain slots, both in C order.
    """
    if one_grade not in ONE_COCHAIN_GRADES:
        raise ValueError("one_grade must be 0 or 1")
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


def dstar_matrix(alg: GradedLieAlgebra, two_grade: int) -> np.ndarray:
    """Dense matrix of the codifferential on grade-``two_grade`` two-cochains.

    Rows are flattened (b, v) one-cochain slots, columns flattened (a, b, k)
    two-cochain slots.
    """
    if two_grade not in TWO_COCHAIN_GRADES:
        raise ValueError("two_grade must be -1 or 0")
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


def _pair_rows(alg: GradedLieAlgebra, one_grade: int) -> np.ndarray:
    """Rows a < b of :func:`d_matrix`.

    Row (b, a, k) of the differential is minus row (a, b, k) and row
    (a, a, k) vanishes, so these rows span its row space.
    """
    n = alg.dims[0]
    D = d_matrix(alg, one_grade)
    ia, ib = np.triu_indices(n, 1)
    return D.reshape(n, n, -1, D.shape[1])[ia, ib].reshape(-1, D.shape[1])


def _pair_cols(alg: GradedLieAlgebra, two_grade: int) -> np.ndarray:
    """Columns a < b of the codifferential precomposed with the alternation.

    Column (a, b, k) of the alternated matrix is half the difference of the
    (a, b, k) and (b, a, k) columns of :func:`dstar_matrix`; column (b, a, k)
    is its negative and column (a, a, k) vanishes.
    """
    n = alg.dims[0]
    S = dstar_matrix(alg, two_grade)
    S4 = S.reshape(S.shape[0], n, n, -1)
    ia, ib = np.triu_indices(n, 1)
    half = S4[:, ia, ib]
    half -= S4[:, ib, ia]
    half *= 0.5
    return half.reshape(S.shape[0], -1)


def _rank(A: np.ndarray, tol: float, copies: int = 1) -> int:
    """Rank of a matrix standing for one whose rows (or columns) are those
    of ``A`` repeated ``copies`` times up to sign.

    The full matrix has the singular values of ``A`` times sqrt(copies), so
    a singular value counts when it exceeds tol * max(1, max|A|) /
    sqrt(copies), the full matrix's threshold.  An empty matrix has rank 0.
    """
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int((s > tol * max(1.0, float(np.abs(A).max())) / np.sqrt(copies)).sum())


def complementarity_check(alg: GradedLieAlgebra, two_grade: int, tol: float = 1e-9) -> dict:
    """Verify Lambda^2 g_{-1}^* (x) g_j = im(d) (+) ker(d*) at grade j.

    This is the numerical stand-in for the adjointness of d and d* with
    respect to admissible inner products: the two subspaces must intersect
    trivially and their dimensions must fill the whole two-cochain space.

    Ranks do all the work without materializing subspace bases: the image
    of d is alternating already, so dim(im d ∩ ker d*) = rank(d) -
    rank(d* d), and ker(d*) inside the alternating subspace is measured by
    the rank of d* precomposed with the alternation projector.

    Every rank is taken in pair coordinates a < b.  The (b, a) rows of d
    are the negatives of its (a, b) rows and its (a, a) rows vanish, so
    the a < b rows carry its rank; the alternated d* has the same property
    in its columns; and d* d = 2 (alternated d*)_{a<b} d_{a<b} exactly.
    The full operators are dropped once their halves are taken, and each
    threshold is the one the full matrix would get (see :func:`_rank`).

    Returns:
        dict with dim_image_d, dim_kernel_dstar, intersection_dim,
        total_dim, complementary.
    """
    n = alg.dims[0]
    nv = _value_dim(alg, two_grade)
    total = (n * (n - 1) // 2) * nv
    if total == 0:
        return {
            "dim_image_d": 0,
            "dim_kernel_dstar": 0,
            "intersection_dim": 0,
            "total_dim": 0,
            "complementary": True,
        }
    D = _pair_rows(alg, two_grade + 1)
    S = _pair_cols(alg, two_grade)
    r_im = _rank(D, tol, copies=2)
    inter = r_im - _rank(2.0 * (S @ D), tol)
    del D
    r_ker = total - _rank(S, tol, copies=2)
    return {
        "dim_image_d": r_im,
        "dim_kernel_dstar": r_ker,
        "intersection_dim": inter,
        "total_dim": total,
        "complementary": bool(inter == 0 and r_im + r_ker == total),
    }


def _alternating_injection(n: int, nv: int) -> np.ndarray:
    """Isometry-up-to-scale from (a<b, k) coordinates into full (a, b, k) storage."""
    pairs = _pairs(n, -1)
    M = np.zeros((n * n * nv, len(pairs) * nv))
    for t, (a, b) in enumerate(pairs):
        for k in range(nv):
            M[(a * n + b) * nv + k, t * nv + k] = 1.0
            M[(b * n + a) * nv + k, t * nv + k] = -1.0
    return M


def cohomology_dim(alg: GradedLieAlgebra, level: str, tol: float = 1e-9) -> int:
    """Dimension of the Spencer cohomology space H^{1,1} or H^{2,1}.

    H11 is computed as ker(d on grade-0 one-cochains) modulo the image of
    ad: g_1 -> g_{-1}^* (x) g_0 (that image lies inside the kernel, which is
    asserted).  H21 is the kernel of d on grade-1 one-cochains; nothing maps
    into that spot because the grading stops at g_1.  The kernel of d is
    read off its a < b rows, as in :func:`complementarity_check`.
    """
    n, n0, n1 = alg.dims
    if level == "H11":
        D = _pair_rows(alg, 0)
        ad = alg.block(1, -1).reshape(n1, n * n0).T
        if D.size and np.abs(D @ ad).max() > 1e-10:
            raise AssertionError("ad image is not d-closed; structure tensor corrupt")
        nullD = n * n0 - _rank(D, tol, copies=2)
        return nullD - int(np.linalg.matrix_rank(ad, tol=tol))
    if level == "H21":
        return n * n1 - _rank(_pair_rows(alg, 1), tol, copies=2)
    raise ValueError(f"level must be 'H11' or 'H21', got {level!r}")


def harmonic_decompose(
    alg: GradedLieAlgebra, t: TwoCochain, tol: float = 1e-9
) -> tuple[TwoCochain, OneCochain]:
    """Split t = harmonic + d(psi) with d*(harmonic) = 0 and psi of minimal norm.

    Solves the normal equation (d* d) psi = d* t by least squares; the
    minimal-norm solution makes the split deterministic.
    """
    _check_two(alg, t)
    one_grade = t.grade + 1
    D = d_matrix(alg, one_grade)
    S = dstar_matrix(alg, t.grade)
    A = S @ D
    b = S @ t.data.reshape(-1)
    psi_vec = np.linalg.lstsq(A, b, rcond=tol)[0]
    psi = OneCochain(one_grade, psi_vec.reshape(alg.dims[0], _value_dim(alg, one_grade)))
    harm = TwoCochain(t.grade, t.data - spencer_d(alg, psi).data)
    return harm, psi


def g0_action_one_cochain(alg: GradedLieAlgebra, A: np.ndarray, psi: OneCochain) -> OneCochain:
    """Infinitesimal g_0 action (A . psi)(X) = [A, psi(X)] - psi([A, X])."""
    _check_one(alg, psi)
    act_val = alg.block(0, psi.grade)
    act_m1 = alg.block(0, -1)
    term1 = np.einsum("c,au,cuv->av", A, psi.data, act_val)
    term2 = np.einsum("c,cab,bv->av", A, act_m1, psi.data)
    return OneCochain(psi.grade, term1 - term2)


def g0_action_two_cochain(alg: GradedLieAlgebra, A: np.ndarray, phi: TwoCochain) -> TwoCochain:
    """Infinitesimal g_0 action on two-cochains.

    (A . phi)(X, Y) = [A, phi(X, Y)] - phi([A, X], Y) - phi(X, [A, Y]).
    """
    _check_two(alg, phi)
    act_val = alg.block(0, phi.grade)
    act_m1 = alg.block(0, -1)
    term1 = np.einsum("c,abk,ckv->abv", A, phi.data, act_val)
    term2 = np.einsum("c,cau,ubv->abv", A, act_m1, phi.data)
    term3 = np.einsum("c,cbu,auv->abv", A, act_m1, phi.data)
    return TwoCochain(phi.grade, term1 - term2 - term3)
