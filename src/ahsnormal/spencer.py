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

from .graded_algebra import Blocks, GradedLieAlgebra, Triplets, _ad_g1, _pair_table

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


def _check_one(alg: GradedLieAlgebra, psi: OneCochain, grade=None, name="psi") -> None:
    """Refuse psi unless it fits the algebra and, if ``grade`` is given, has that grade."""
    if grade is not None and psi.grade != grade:
        raise ValueError(f"{name} must be a grade {grade} one-cochain")
    n = alg.dims[0]
    if psi.data.shape != (n, _value_dim(alg, psi.grade)):
        raise ValueError(
            f"one-cochain shape {psi.data.shape} does not match algebra "
            f"(expected {(n, _value_dim(alg, psi.grade))})"
        )


def _check_two(alg: GradedLieAlgebra, phi: TwoCochain, grade=None, name="phi") -> None:
    """Refuse phi unless it fits the algebra and, if ``grade`` is given, has that grade."""
    if grade is not None and phi.grade != grade:
        raise ValueError(f"{name} must be a grade {grade} two-cochain")
    n = alg.dims[0]
    if phi.data.shape != (n, n, _value_dim(alg, phi.grade)):
        raise ValueError(
            f"two-cochain shape {phi.data.shape} does not match algebra "
            f"(expected {(n, n, _value_dim(alg, phi.grade))})"
        )


def spencer_d(alg: GradedLieAlgebra, psi: OneCochain) -> TwoCochain:
    """Spencer differential (d psi)(X, Y) = [psi(X), Y] - [psi(Y), X].

    This stays an einsum: ``d_triplets @ psi`` gives the same reports but
    moves the last digits of the harmonic fingerprints, which take d psi here.
    """
    _check_one(alg, psi)
    B = alg.block(psi.grade, -1)
    half = np.einsum("au,ubk->abk", psi.data, B)
    return TwoCochain(psi.grade - 1, half - half.transpose(1, 0, 2))


def spencer_dstar(alg: GradedLieAlgebra, phi: TwoCochain) -> OneCochain:
    """Spencer codifferential (d* phi)(X) = sum_a [z^a, phi(x_a, X)]."""
    _check_two(alg, phi)
    out = dstar_triplets(alg, phi.grade) @ phi.data.reshape(-1)
    return OneCochain(phi.grade + 1, out.reshape(alg.dims[0], -1))


def d_triplets(alg: GradedLieAlgebra, one_grade: int) -> Triplets:
    """The differential on grade-``one_grade`` one-cochains, as triplets.

    Rows are indexed by flattened (a, b, k) two-cochain slots, columns by
    flattened (c, u) one-cochain slots, both in C order.  The column of
    the basis cochain E_cu holds +B[u, b, k] in row (c, b, k) and
    -B[u, b, k] in row (b, c, k), where B = C[g_one_grade, g_{-1}, .];
    the two cancel where b = c.
    """
    if one_grade not in ONE_COCHAIN_GRADES:
        raise ValueError("one_grade must be 0 or 1")
    n = alg.dims[0]
    B = alg.block(one_grade, -1)
    nv_o, _, nv_t = B.shape
    u, b, k = np.nonzero(B)
    c, e = np.nonzero(np.arange(n)[:, None] != b)  # entries with b == c cancel
    u, b, k = u[e], b[e], k[e]
    val = B[u, b, k]
    col = c * nv_o + u
    return Triplets(
        np.concatenate([(c * n + b) * nv_t + k, (b * n + c) * nv_t + k]),
        np.concatenate([col, col]),
        np.concatenate([val, -val]),
        (n * n * nv_t, n * nv_o),
    )


def dstar_triplets(alg: GradedLieAlgebra, two_grade: int) -> Triplets:
    """The codifferential on grade-``two_grade`` two-cochains, as triplets.

    Rows are flattened (b, v) one-cochain slots, columns flattened (a, b, k)
    two-cochain slots; entry ((b, v), (a, b, k)) is W[a, k, v] =
    Zd[a, a] C[z_a, g_two_grade, .][k, v] for every b, Zd the diagonal dual basis.
    """
    if two_grade not in TWO_COCHAIN_GRADES:
        raise ValueError("two_grade must be -1 or 0")
    n = alg.dims[0]
    B = alg.block(1, two_grade)
    nv_t, nv_o = B.shape[1:]
    W = np.diag(alg.dual_basis())[:, None, None] * B
    a, k, v = np.nonzero(W)
    b = np.arange(n)[:, None]
    return Triplets(
        (b * nv_o + v).reshape(-1),
        ((a * n + b) * nv_t + k).reshape(-1),
        np.broadcast_to(W[a, k, v], (n, a.size)).reshape(-1),
        (n * nv_o, n * n * nv_t),
    )


def d_matrix(alg: GradedLieAlgebra, one_grade: int) -> np.ndarray:
    """Dense form of :func:`d_triplets`."""
    return d_triplets(alg, one_grade).dense()


def dstar_matrix(alg: GradedLieAlgebra, two_grade: int) -> np.ndarray:
    """Dense form of :func:`dstar_triplets`."""
    return dstar_triplets(alg, two_grade).dense()


def _pair_cols(S: Triplets, n: int) -> Triplets:
    """Columns a < b of a matrix on two-cochains precomposed with the alternation.

    Column (a, b, k) of the alternated matrix is half the difference of the
    (a, b, k) and (b, a, k) columns of S; column (b, a, k) is its negative
    and column (a, a, k) vanishes.  On a transposed differential, whose
    column (b, a, k) is minus its column (a, b, k), each half adds up
    exactly to the (a, b, k) column, so ``_pair_cols(D.T, n)`` is the
    transpose of the a < b rows of D.
    """
    nv = S.shape[1] // (n * n)
    a, b, k = np.unravel_index(S.cols, (n, n, nv))
    slot, sign = _pair_table(n, -1)
    keep = a != b
    return Triplets.summed(
        S.rows[keep],
        slot[a, b][keep] * nv + k[keep],
        0.5 * sign[a, b][keep] * S.vals[keep],
        (S.shape[0], n * (n - 1) // 2 * nv),
    )


# The parts of the Spencer complexes by algebra content, oldest first (see
# _complex).  The bound must stay at least 5, the number of distinct algebras
# in a stream of normalize calls over the five kinds at one point each: with
# fewer, which calls rebuild the trace map would depend on the order the
# calls arrive in.
_COMPLEXES: dict[tuple, dict] = {}
_COMPLEXES_SIZE = 8


def _freeze(value) -> None:
    """Make every array in ``value`` (nested in tuples, lists, Triplets and
    Blocks) read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (Triplets, Blocks)):
        _freeze(list(vars(value).values()))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)


class _Complex:
    """The Spencer complex of one algebra: its triplets, ranks and block
    pseudo-inverses, each made on first use and kept in ``parts``, the
    cached dict of the algebra's content (:func:`_complex`).  Parts are
    shared, so their arrays are read-only; none is a dense operator."""

    def __init__(self, alg: GradedLieAlgebra, parts: dict):
        self.alg, self.parts = alg, parts

    def part(self, name, build):
        if name not in self.parts:
            value = build()
            _freeze(value)
            self.parts[name] = value
        return self.parts[name]

    def d(self, one_grade: int) -> Triplets:
        return self.part(("d", one_grade), lambda: d_triplets(self.alg, one_grade))

    def dstar(self, two_grade: int) -> Triplets:
        return self.part(("dstar", two_grade), lambda: dstar_triplets(self.alg, two_grade))

    def d_rank(self, one_grade: int) -> int:
        """Rank of d, read off its a < b rows."""
        n = self.alg.dims[0]
        return self.part(("d_rank", one_grade),
                         lambda: Blocks.split(_pair_cols(self.d(one_grade).T, n)).rank())

    def dstar_rank(self, two_grade: int) -> int:
        """Rank of d* precomposed with the alternation."""
        n = self.alg.dims[0]
        return self.part(("dstar_rank", two_grade),
                         lambda: Blocks.split(_pair_cols(self.dstar(two_grade), n)).rank())

    def dstar_d(self, two_grade: int) -> Triplets:
        """d* d around grade-``two_grade`` two-cochains."""
        return self.part(("dstar_d", two_grade),
                         lambda: self.dstar(two_grade) @ self.d(two_grade + 1))

    def dstar_d_pinv(self, two_grade: int) -> tuple[Blocks, int]:
        """pinv(d* d) around grade-``two_grade`` two-cochains, block by block, and its rank."""
        return self.part(("dstar_d_pinv", two_grade),
                         lambda: Blocks.split(self.dstar_d(two_grade)).pinv())

    def ad(self) -> Triplets:
        return self.part("ad", lambda: _ad_g1(self.alg))

    def d_ad(self) -> Triplets:
        """d ad, empty for a Jacobi-exact structure tensor."""
        return self.part("d_ad", lambda: self.d(0) @ self.ad())


def _complex(alg: GradedLieAlgebra) -> _Complex:
    """The Spencer complex of ``alg``, on the parts cached for its content.

    The key holds all that the parts read: the dims, the pairing diagonal
    and the nonzero positions and values of C[g_0, g_{-1}], C[g_1, g_{-1}]
    and C[g_1, g_0] (the triplet builders skip zeros of either sign).  An
    algebra whose structure constants change therefore never gets a stale
    part.
    """
    key = (tuple(alg.dims), np.diag(alg.pairing).tobytes())
    for B in (alg.block(0, -1), alg.block(1, -1), alg.block(1, 0)):
        nz = np.flatnonzero(B)
        key += (nz.tobytes(), B[np.unravel_index(nz, B.shape)].tobytes())
    parts = _COMPLEXES.get(key)
    if parts is None:
        if len(_COMPLEXES) >= _COMPLEXES_SIZE:
            del _COMPLEXES[next(iter(_COMPLEXES))]
        parts = _COMPLEXES[key] = {}
    return _Complex(alg, parts)


def complementarity_check(alg: GradedLieAlgebra, two_grade: int) -> dict:
    """Verify Lambda^2 g_{-1}^* (x) g_j = im(d) (+) ker(d*) at grade j.

    This is the numerical stand-in for the adjointness of d and d* with
    respect to admissible inner products: the two subspaces must intersect
    trivially and their dimensions must fill the whole two-cochain space.

    Ranks do all the work without materializing subspace bases: the image
    of d is alternating already, so dim(im d ∩ ker d*) = rank(d) -
    rank(d* d), and ker(d*) inside the alternating subspace is measured by
    the rank of d* precomposed with the alternation projector.

    The ranks of d and of the alternated d* are taken in pair coordinates
    a < b, by :func:`_pair_cols` on d transposed and on d*: the (b, a)
    rows of d are the negatives of its (a, b) rows and its (a, a) rows
    vanish, so the a < b rows carry its rank.  d* d is the product of the
    full operators.  Every rank is :meth:`Blocks.rank` on triplets (that
    of d* d comes with its pseudo-inverse), taken once per algebra in its
    cached Spencer complex (:func:`_complex`) and shared with
    :func:`cohomology_dim`, the trace map and the harmonic sampler.

    The dense :func:`d_matrix` and :func:`dstar_matrix` are built here only
    because the benchmark's tracer (``perfbench/tracing.py``) counts and
    sizes those two calls here.  Nothing reads them: each is built on small
    pages (:meth:`Triplets.dense`) and dropped at once, one at a time, so
    the two are never held together.

    Returns:
        dict with dim_image_d, dim_kernel_dstar, intersection_dim,
        total_dim, complementary.
    """
    d_matrix(alg, two_grade + 1)
    dstar_matrix(alg, two_grade)
    n = alg.dims[0]
    nv = _value_dim(alg, two_grade)
    total = (n * (n - 1) // 2) * nv
    cx = _complex(alg)
    r_im = cx.d_rank(two_grade + 1)
    inter = r_im - cx.dstar_d_pinv(two_grade)[1]
    r_ker = total - cx.dstar_rank(two_grade)
    return {
        "dim_image_d": r_im,
        "dim_kernel_dstar": r_ker,
        "intersection_dim": inter,
        "total_dim": total,
        "complementary": bool(inter == 0 and r_im + r_ker == total),
    }


def cohomology_dim(alg: GradedLieAlgebra, level: str) -> int:
    """Dimension of the Spencer cohomology space H^{1,1} or H^{2,1}.

    H11 is computed as ker(d on grade-0 one-cochains) modulo the image of
    ad: g_1 -> g_{-1}^* (x) g_0 (that image lies inside the kernel, which is
    asserted).  H21 is the kernel of d on grade-1 one-cochains; nothing maps
    into that spot because the grading stops at g_1.  The rank of d is
    read off its a < b rows, ``_pair_cols(D.T, n)`` as in
    :func:`complementarity_check`, and every rank, that of ad included, is
    :meth:`Blocks.rank`, each taken once per algebra in its cached Spencer
    complex.  The closure of the ad image is checked exactly: any nonzero
    entry of d ad raises.
    """
    n, n0, n1 = alg.dims
    cx = _complex(alg)
    if level == "H11":
        if cx.d_ad().vals.size:
            raise AssertionError("ad image is not d-closed; structure tensor corrupt")
        return n * n0 - cx.d_rank(0) - cx.part("ad_rank", lambda: Blocks.split(cx.ad()).rank())
    if level == "H21":
        return n * n1 - cx.d_rank(1)
    raise ValueError(f"level must be 'H11' or 'H21', got {level!r}")

