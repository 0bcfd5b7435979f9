"""Construction of the |1|-graded semisimple Lie algebras behind AHS structures.

Five families are supported, each a real semisimple Lie algebra with a
grading g = g_{-1} + g_0 + g_1 in which g_{-1} and g_1 are abelian and
dual to each other under an invariant pairing:

* ``conformal``     so(m+1, 1), g_{-1} = R^m, g_0 = co(m)
* ``grassmannian``  sl(p+q), g_{-1} = Mat(q, p), g_0 = s(gl(p) + gl(q))
* ``projective``    sl(q+1), g_{-1} = R^q, g_0 = gl(q)
* ``lagrangian``    sp(2m), g_{-1} = Sym^2 R^m, g_0 = gl(m)
* ``spinorial``     so(m, m), g_{-1} = Lambda^2 R^m, g_0 = gl(m)

Structure constants are assembled from explicit bracket rules on basis
generators and stored as the sorted triplets of their nonzero entries, each
an exact dyadic rational, so antisymmetry, the grading, and the Jacobi
identity hold exactly in float64 arithmetic.  A block-matrix realization
of each family serves as an independent oracle (:func:`cross_check_matrix_rep`).
"""

from __future__ import annotations

import errno
import functools
import mmap
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

KINDS = ("conformal", "grassmannian", "projective", "lagrangian", "spinorial")

# The rank rule of every rank, kernel and pseudo-inverse in the package: a
# singular value counts as zero when it is at most RANK_TOL * max(1, smax),
# smax the largest singular value of the whole matrix (rank_cutoff).  On every
# tested algebra each ranked operator's singular values are below 1.4e-15 *
# max(1, smax) or above 0.10 * max(1, smax), so no rank depends on RANK_TOL.
RANK_TOL = 1e-9

# Largest dim g built.  C is sparse and no builder makes a dense block; the bound caps the
# dense arrays of verify, each under (dim g)^3 float64 entries (1 GiB).  At the edge,
# projective q = 21, the two largest are C[g_0, g_0, g_0], 686 MB, and the checked
# second-torsion map over g_{-1} + g_0, 789 MB, which is not a copy of C.
MAX_DIM = 512

# Matrix entries per batch of cross_check_matrix_rep.
CHUNK_ENTRIES = 1 << 16

# Size from which numpy advises huge pages for an array's memory, and from
# which Triplets.dense allocates on small pages instead.
HUGE_PAGE_ADVICE_BYTES = 4 << 20


class ParameterError(ValueError):
    """Raised when structure-kind parameters are outside the valid range."""


@dataclass(eq=False, frozen=True)
class GradedLieAlgebra:
    """A |1|-graded semisimple Lie algebra in a fixed ordered basis.

    A read-only value: its arrays cannot be written, so a changed algebra is
    a copy made by ``dataclasses.replace``, and that copy starts with no parts.

    Attributes:
        kind: one of :data:`KINDS`.
        params: the validated structure parameters, e.g. ``{"p": 2, "q": 3}``,
            as a read-only mapping.
        dims: ``(dim g_{-1}, dim g_0, dim g_1)``.
        labels: human-readable basis labels, flat across the three grades in
            order g_{-1}, g_0, g_1, as a tuple.
        C: the structure constants ``[b_i, b_j] = sum_k C[i, j, k] b_k`` as
            (N^2, N) :class:`Triplets`, N = dim g: row ``i * N + j``, column
            ``k``, one per nonzero entry, in C order.  All entries are exact
            dyadic rationals, read by grade sector (:meth:`sector`, :meth:`block`).
        pairing: matrix ``P[u, a] = <z_u, x_a>`` of the invariant pairing
            between g_1 and g_{-1} (diagonal in every family).
        g0_blocks: per-family block realization of the g_0 basis, used for
            block traces and coordinate conversion.
        normalizable: False only for the rank-one grassmannian case
            sl(2) = grassmannian(1, 1), where the normalization problem
            degenerates.
        projective_type: True for the gradings with nonvanishing first
            Spencer cohomology in the relevant degree (projective kind,
            grassmannian with p = 1 and q >= 2, spinorial with m = 3).
        parts: what is derived from the algebra alone, such as its dense
            blocks and its Spencer complex, each made once by :meth:`part`.
    """

    kind: str
    params: MappingProxyType
    dims: tuple[int, int, int]
    labels: tuple[str, ...]
    C: Triplets
    pairing: np.ndarray
    g0_blocks: MappingProxyType
    normalizable: bool
    projective_type: bool
    parts: dict = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "g0_blocks", MappingProxyType(dict(self.g0_blocks)))
        _freeze([self.C, self.pairing, *self.g0_blocks.values()])

    def part(self, name, build):
        """``build()`` on the first call for ``name``, made read-only and kept in ``parts``."""
        if name not in self.parts:
            value = build()
            _freeze(value)
            self.parts[name] = value
        return self.parts[name]

    # -- index helpers -------------------------------------------------

    @property
    def n_total(self) -> int:
        return int(sum(self.dims))

    def grade_slice(self, grade: int) -> slice:
        n, n0, n1 = self.dims
        if grade == -1:
            return slice(0, n)
        if grade == 0:
            return slice(n, n + n0)
        if grade == 1:
            return slice(n + n0, n + n0 + n1)
        raise ValueError(f"grade must be -1, 0 or 1, got {grade}")

    def sector(self, gx: int, gy: int) -> tuple[np.ndarray, ...]:
        """(i, j, k, value) of the nonzero entries of the sector C[g_x, g_y, g_{x+y}]
        in C order, the order of ``np.nonzero`` on :meth:`block`; a part, so C
        is scanned once per sector and algebra."""
        if abs(gx + gy) > 1:
            raise ValueError("bracket grade out of range")
        return self.part(("sector", gx, gy),
                         lambda: self.nonzeros(*map(self.grade_slice, (gx, gy, gx + gy))))

    def block(self, gx: int, gy: int) -> np.ndarray:
        """The dense sector C[g_x basis, g_y basis, g_{x+y} basis], a part: the one
        place where C is made dense (:meth:`Triplets.dense`), for the dense kernels."""
        def build() -> np.ndarray:
            i, j, k, v = self.sector(gx, gy)
            ni, nj, nk = (self.dims[g + 1] for g in (gx, gy, gx + gy))
            return Triplets(i * nj + j, k, v, (ni * nj, nk)).dense().reshape(ni, nj, nk)

        return self.part(("C", gx, gy), build)

    def nonzeros(self, si: slice, sj: slice, sk: slice) -> tuple[np.ndarray, ...]:
        """(i, j, k, value) of the nonzero entries of C[si, sj, sk] in C order,
        the indices counted from the block's corner."""
        (i, j), k = np.divmod(self.C.rows, self.n_total), self.C.cols
        keep = ((si.start <= i) & (i < si.stop) & (sj.start <= j) & (j < sj.stop)
                & (sk.start <= k) & (k < sk.stop))
        return i[keep] - si.start, j[keep] - sj.start, k[keep] - sk.start, self.C.vals[keep]

    def dual_basis(self) -> np.ndarray:
        """Matrix M with row a = g_1 coordinates of the dual vector z^a.

        The defining property is ``<z^a, x_b> = delta_ab``, i.e. ``M @ pairing
        = identity``.  The pairing is diagonal in every family, so M is the
        diagonal of exact reciprocals.
        """
        return np.diag(1.0 / np.diag(self.pairing))


def build_algebra(kind: str, **params) -> GradedLieAlgebra:
    """Build one of the five graded algebras with validated parameters.

    Each point is built once per process (:func:`_shared`), and every call
    for it returns that one read-only object.

    Raises:
        ParameterError: unknown kind, missing parameters, or parameters
            outside the structure's validity range.
    """
    expected = {"conformal": {"m"}, "grassmannian": {"p", "q"}, "projective": {"q"},
                "lagrangian": {"m"}, "spinorial": {"m"}}
    if kind not in expected:
        raise ParameterError(f"unknown structure kind {kind!r}; expected one of {KINDS}")
    extra = set(params) - expected[kind]
    if extra:
        raise ParameterError(f"unexpected parameters {sorted(extra)} for kind {kind!r}")
    if kind == "grassmannian":
        p = _want_int(params, "p", kind)
        q = _want_int(params, "q", kind)
        if not (1 <= p <= q):
            raise ParameterError(f"grassmannian requires q >= p >= 1, got p = {p}, q = {q}")
        _check_dim(kind, (p + q) ** 2 - 1)
        return _shared(_build_grassmannian, p, q)
    if kind == "projective":
        q = _want_int(params, "q", kind)
        if q < 2:
            raise ParameterError(f"projective requires q >= 2, got q = {q}")
        _check_dim(kind, (q + 1) ** 2 - 1)
        return _shared(_build_projective, q)
    m = _want_int(params, "m", kind)
    if m < 3:
        raise ParameterError(f"{kind} requires m >= 3, got m = {m}")
    _check_dim(kind, {"conformal": (m + 1) * (m + 2) // 2, "lagrangian": m * (2 * m + 1),
                      "spinorial": m * (2 * m - 1)}[kind])
    if kind == "conformal":
        return _shared(_build_conformal, m)
    return _shared(_build_pair, m, 1 if kind == "lagrangian" else -1)


# The algebras by builder and arguments, the least recently used dropped
# first, each with its parts.  The bound must stay at least 5, the distinct
# algebras of a normalize stream over the five kinds at one point each, or
# which calls rebuild an algebra and its trace map would depend on their order.
@functools.lru_cache(maxsize=8)
def _shared(build, *args) -> GradedLieAlgebra:
    return build(*args)


def _check_dim(kind: str, dim: int) -> None:
    """Refuse parameters whose algebra dimension exceeds :data:`MAX_DIM`."""
    if dim > MAX_DIM:
        raise ParameterError(
            f"{kind} parameters give dim g = {dim}; each dense block of the structure tensor, "
            f"under (dim g)^3 float64 entries, must fit a 1 GiB budget, i.e. dim g <= {MAX_DIM}"
        )


def _want_int(params: dict, name: str, kind: str) -> int:
    if name not in params:
        raise ParameterError(f"structure kind {kind!r} requires parameter {name!r}")
    value = params[name]
    if not _is_int(value):
        raise ParameterError(f"parameter {name!r} must be an integer, got {value!r}")
    return int(value)


def _is_int(value) -> bool:
    """The integer rule of library inputs: an int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _pairs(m: int, eps: int) -> list[tuple[int, int]]:
    """Ordered index pairs k <= l (eps = +1, Sym^2) or k < l (eps = -1, Lambda^2)."""
    return [(k, l) for k in range(m) for l in range(k if eps > 0 else k + 1, m)]


def _pair_table(m: int, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """(slot, sign) with x(a, b) = sign[a, b] * x(pairs[slot[a, b]]) over
    :func:`_pairs`, so x(b, a) = eps * x(a, b); slot is -1 where x(a, b) is
    absent (a = b when eps = -1)."""
    ps, pt = np.triu_indices(m, 0 if eps > 0 else 1)
    slot = np.full((m, m), -1, dtype=np.intp)
    slot[ps, pt] = slot[pt, ps] = np.arange(ps.size)
    sign = np.full((m, m), float(eps))
    sign[ps, pt] = 1.0
    return slot, sign


def _gl_basis(m: int) -> np.ndarray:
    """Matrices of the gl(m) basis h(i, j) = E_ji, at flat index i*m + j."""
    mats = np.zeros((m * m, m, m))
    for i in range(m):
        for j in range(m):
            mats[i * m + j][j, i] = 1.0
    return mats


def _put_brackets(ent: list, i, j, k, v) -> None:
    """Add [b_i, b_j] += v b_k and [b_j, b_i] -= v b_k over index arrays to
    the entries ``ent``; repeated entries accumulate (:func:`_structure`)."""
    i, j, k, v = np.broadcast_arrays(i, j, k, v)
    ent += [(i, j, k, v), (j, i, k, -v)]


def _structure(N: int, ent: list) -> Triplets:
    """The structure constants of the entries ``ent`` as (N^2, N) triplets:
    repeats summed, zeros dropped, in C order."""
    i, j, k, v = (np.concatenate([np.ravel(e[t]) for e in ent]) for t in range(4))
    return Triplets.summed(i * N + j, k, v, (N * N, N))


def _fill_gl_internal(C: list, m: int, o0: int) -> None:
    """gl(m) internal brackets [h(i,j), h(k,l)] = d_il h(k,j) - d_kj h(i,l).

    Each pair c1 = h(i,j) < c2 is visited only where a delta can fire:
    l = i for the first term, k = j for the second; v runs over the free index.
    """
    i, j, v = np.indices((m, m, m)).reshape(3, -1)
    c1 = i * m + j
    for c2, c3, sign in ((v * m + i, v * m + j, 1.0), (j * m + v, i * m + v, -1.0)):
        keep = c2 > c1
        _put_brackets(C, o0 + c1[keep], o0 + c2[keep], o0 + c3[keep], sign)


# ---------------------------------------------------------------------------
# conformal: so(m+1, 1) in a light-cone basis
# ---------------------------------------------------------------------------


def _build_conformal(m: int) -> GradedLieAlgebra:
    n = m
    rot = _pairs(m, -1)
    n0 = 1 + len(rot)
    N = n + n0 + n

    labels = [f"x{i + 1}" for i in range(m)]
    labels += ["Z0"] + [f"F({k + 1},{l + 1})" for k, l in rot]
    labels += [f"z{j + 1}" for j in range(m)]

    slot, sign = _pair_table(m, -1)  # F_ij = -F_ji
    ps, pt = np.triu_indices(m, 1)  # rot as index arrays

    C: list = []
    o0, o1 = n, n + n0
    of = o0 + 1  # F(k, l) = rot[t] sits at of + t

    # [x_i, z_j] = -delta_ij Z0 + F_ij
    i, j = np.indices((m, m)).reshape(2, -1)
    hit = i != j
    _put_brackets(C, i[~hit], o1 + j[~hit], o0, -1.0)
    _put_brackets(C, i[hit], o1 + j[hit], of + slot[i, j][hit], sign[i, j][hit])

    # [Z0, x_j] = -x_j ; [Z0, z_j] = +z_j
    j = np.arange(m)
    _put_brackets(C, o0, j, j, -1.0)
    _put_brackets(C, o0, o1 + j, o1 + j, 1.0)

    # [F_kl, x_j] = delta_lj x_k - delta_kj x_l, and the same so(m) pattern
    # on g_1 (required by invariance of the pairing):
    # [F_kl, z_j] = delta_lj z_k - delta_kj z_l
    t = np.arange(len(rot))
    for j, a, v in ((pt, ps, 1.0), (ps, pt, -1.0)):
        _put_brackets(C, of + t, j, a, v)
        _put_brackets(C, of + t, o1 + j, o1 + a, v)

    # [F_ij, F_kl] = d_jk F_il - d_ik F_jl - d_jl F_ik + d_il F_jk, pairs t1 < t2
    t1, t2 = np.triu_indices(len(rot), 1)
    i, j, k, l = ps[t1], pt[t1], ps[t2], pt[t2]
    for hit, a, b, v in ((j == k, i, l, 1.0), (i == k, j, l, -1.0),
                         (j == l, i, k, -1.0), (i == l, j, k, 1.0)):
        hit &= slot[a, b] >= 0
        _put_brackets(C, of + t1[hit], of + t2[hit], of + slot[a, b][hit], v * sign[a, b][hit])

    a_vec = np.zeros(n0)
    a_vec[0] = 1.0
    E_mats = np.zeros((n0, m, m))
    E_mats[1 + t, ps, pt] = 1.0
    E_mats[1 + t, pt, ps] = -1.0

    return GradedLieAlgebra(
        kind="conformal",
        params={"m": m},
        dims=(n, n0, n),
        labels=labels,
        C=_structure(N, C),
        pairing=np.eye(m),
        g0_blocks={"a": a_vec, "E": E_mats},
        normalizable=True,
        projective_type=False,
    )


# ---------------------------------------------------------------------------
# grassmannian: sl(p+q) with the block grading
# ---------------------------------------------------------------------------


def _build_grassmannian(p: int, q: int) -> GradedLieAlgebra:
    n = p * q
    n0 = p * p + q * q - 1
    N = 2 * n + n0
    s = p + q
    o0, o1 = n, n + n0

    # Every basis element is a matrix unit of sl(s) or an H_k.  g_{-1}:
    # x^a_i = E_{p+i,a}; g_1: z^i_a = E_{a,p+i}, both at flat index a*q + i,
    # so the trace-form pairing matrix is the identity.  g_0: a^u_v = E_vu,
    # then d^u_v = E_{p+v,p+u}, u != v in both, then H_k = E_kk - E_{k+1,k+1}.
    a, i = np.indices((p, q)).reshape(2, -1)
    u, v = np.indices((p, p)).reshape(2, -1)[:, ~np.eye(p, dtype=bool).ravel()]
    w, x = np.indices((q, q)).reshape(2, -1)[:, ~np.eye(q, dtype=bool).ravel()]
    oh = o0 + u.size + w.size
    unit = np.full((s, s), -1, dtype=np.intp)  # basis index of the off-diagonal E_rc
    unit[p + i, a] = np.arange(n)
    unit[v, u] = o0 + np.arange(u.size)
    unit[p + x, p + w] = o0 + u.size + np.arange(w.size)
    unit[a, p + i] = o1 + np.arange(n)
    rep = np.zeros((N, s, s))
    r, c = np.nonzero(unit >= 0)
    rep[unit[r, c], r, c] = 1.0
    k = np.arange(s - 1)
    rep[oh + k, k, k] = 1.0
    rep[oh + k, k + 1, k + 1] = -1.0

    labels = [f"x^{a + 1}_{i + 1}" for a in range(p) for i in range(q)]
    labels += [f"a^{u + 1}_{v + 1}" for u, v in zip(u, v)]
    labels += [f"d^{w + 1}_{x + 1}" for w, x in zip(w, x)]
    labels += [f"H{k + 1}" for k in range(s - 1)]
    labels += [f"z^{i + 1}_{a + 1}" for a in range(p) for i in range(q)]

    # [b_i, b_j] = T(i, j) - T(j, i) for the matrix product T(i, j) = b_i b_j, so
    # [E_ab, E_cd] = d_bc E_ad - d_da E_cb; T is taken over all ordered pairs.
    b, r, c = np.nonzero(rep)
    T = (Triplets(b * s + r, c, rep[b, r, c], (N * s, s))
         @ Triplets(r, b * s + c, rep[b, r, c], (s, N * s)))
    (i, r), (j, c) = np.divmod(T.rows, s), np.divmod(T.cols, s)
    C: list = []
    off = r != c
    _put_brackets(C, i[off], j[off], unit[r, c][off], T.vals[off])
    # E_rr has coordinate 1 on each H_k with k >= r; only traceless sums are brackets
    e, k = np.nonzero(np.arange(s - 1) >= r[~off, None])
    _put_brackets(C, i[~off][e], j[~off][e], oh + k, T.vals[~off][e])

    return GradedLieAlgebra(
        kind="grassmannian",
        params={"p": p, "q": q},
        dims=(n, n0, n),
        labels=labels,
        C=_structure(N, C),
        pairing=np.eye(n),
        g0_blocks={"A": rep[o0:o1, :p, :p].copy(), "D": rep[o0:o1, p:, p:].copy()},
        normalizable=p + q >= 3,
        projective_type=(p == 1 and q >= 2),
    )


# ---------------------------------------------------------------------------
# projective: sl(q+1)
# ---------------------------------------------------------------------------


def _build_projective(q: int) -> GradedLieAlgebra:
    n = q
    n0 = q * q
    N = 2 * n + n0

    labels = [f"x{i + 1}" for i in range(q)]
    labels += [f"h({i + 1},{j + 1})" for i in range(q) for j in range(q)]
    labels += [f"z{j + 1}" for j in range(q)]

    C: list = []
    o0, o1 = n, n + n0
    i, j = np.indices((q, q)).reshape(2, -1)  # h(i, j) sits at o0 + i*q + j

    # [x_i, z_j] = h(j, i) + delta_ij * sum_k h(k, k)
    _put_brackets(C, i, o1 + j, o0 + j * q + i, 1.0)
    _put_brackets(C, i, o1 + i, o0 + j * (q + 1), 1.0)

    # [h(i,j), x_k] = delta_ik x_j ; [h(i,j), z_k] = -delta_jk z_i
    _put_brackets(C, o0 + i * q + j, i, j, 1.0)
    _put_brackets(C, o0 + i * q + j, o1 + j, o1 + i, -1.0)

    _fill_gl_internal(C, q, o0)

    return GradedLieAlgebra(
        kind="projective",
        params={"q": q},
        dims=(n, n0, n),
        labels=labels,
        C=_structure(N, C),
        pairing=np.eye(n),
        g0_blocks={"F": _gl_basis(q)},
        normalizable=True,
        projective_type=True,
    )


# ---------------------------------------------------------------------------
# the pair kinds: g_{-1} is the eps-symmetric square of R^m, g_0 = gl(m)
#   lagrangian  sp(2m),   eps = +1, g_{-1} = Sym^2 R^m
#   spinorial   so(m, m), eps = -1, g_{-1} = Lambda^2 R^m
# ---------------------------------------------------------------------------


def _build_pair(m: int, eps: int) -> GradedLieAlgebra:
    """sp(2m) (eps = +1) or so(m, m) (eps = -1) with the gl(m) grading.

    The basis x(k, l), z(k, l) runs over :func:`_pairs`; off the stored
    order, x(l, k) = eps * x(k, l), and x(k, k) is absent when eps = -1.
    """
    pairs = _pairs(m, eps)
    n = len(pairs)
    n0 = m * m
    N = 2 * n + n0

    labels = [f"x({k + 1},{l + 1})" for k, l in pairs]
    labels += [f"h({i + 1},{j + 1})" for i in range(m) for j in range(m)]
    labels += [f"z({k + 1},{l + 1})" for k, l in pairs]

    ps, pt = np.array(pairs, dtype=np.intp).T
    slot, sign = _pair_table(m, eps)

    C: list = []
    o0, o1 = n, n + n0

    # [z(s,t), x(k,l)] = -1/4 (eps d_sk h(t,l) + d_sl h(t,k) + d_tk h(s,l) + eps d_tl h(s,k))
    zt, xt = np.indices((n, n)).reshape(2, -1)
    s, t, k, l = ps[zt], pt[zt], ps[xt], pt[xt]
    for hit, h, v in ((s == k, t * m + l, -0.25 * eps), (s == l, t * m + k, -0.25),
                      (t == k, s * m + l, -0.25), (t == l, s * m + k, -0.25 * eps)):
        _put_brackets(C, o1 + zt[hit], xt[hit], o0 + h[hit], v)

    # [h(p,w), x(k,l)] = d_pk x(w,l) + eps d_pl x(w,k)
    # [z(s,t), h(p,w)] = d_tw z(s,p) + eps d_sw z(t,p)
    # so pair t = (k, l) meets h(k,v), h(l,v) on g_{-1} and h(v,l), h(v,k) on g_1
    t, v = np.indices((n, m)).reshape(2, -1)
    k, l = ps[t], pt[t]
    for hc, a, b, sg in ((k * m + v, v, l, 1.0), (l * m + v, v, k, eps)):
        hit = slot[a, b] >= 0
        _put_brackets(C, o0 + hc[hit], t[hit], slot[a, b][hit], sg * sign[a, b][hit])
    for hc, a, b, sg in ((v * m + l, k, v, 1.0), (v * m + k, l, v, eps)):
        hit = slot[a, b] >= 0
        _put_brackets(C, o1 + t[hit], o0 + hc[hit], o1 + slot[a, b][hit], sg * sign[a, b][hit])

    _fill_gl_internal(C, m, o0)

    return GradedLieAlgebra(
        kind="lagrangian" if eps > 0 else "spinorial",
        params={"m": m},
        dims=(n, n0, n),
        labels=labels,
        C=_structure(N, C),
        pairing=np.diag([1.0 if k == l else 0.5 for k, l in pairs]),
        g0_blocks={"A": _gl_basis(m)},
        normalizable=True,
        projective_type=(eps < 0 and m == 3),
    )


# ---------------------------------------------------------------------------
# sparse matrices, and the structural diagnostics built on them
# ---------------------------------------------------------------------------


def rank_cutoff(smax: float) -> float:
    """Largest singular value that counts as zero in a matrix whose largest is ``smax``."""
    return RANK_TOL * max(1.0, float(smax))


def _check_inner(A, x) -> None:
    """Refuse ``A @ x`` unless the columns of ``A`` match the rows of ``x``."""
    if x.shape[:1] != A.shape[1:]:
        raise ValueError(f"matmul inner dimensions differ: {A.shape} @ {x.shape}")


class Triplets:
    """A sparse matrix as (row, column, value) triplets.

    No (row, column) pair repeats.  ``T @ x`` and ``x @ T`` take a dense
    vector or matrix ``x``, or another :class:`Triplets` on the right.
    """

    __array_ufunc__ = None  # ``ndarray @ Triplets`` defers to __rmatmul__

    def __init__(self, rows, cols, vals, shape: tuple[int, int]):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def summed(cls, rows, cols, vals, shape: tuple[int, int]) -> Triplets:
        """Triplets from entries whose repeated (row, column) pairs add up;
        entries that sum to zero are dropped."""
        key, inv = np.unique(np.asarray(rows) * shape[1] + cols, return_inverse=True)
        vals = np.bincount(inv, weights=vals, minlength=key.size)
        keep = vals != 0.0
        return cls(*np.divmod(key[keep], shape[1]), vals[keep], shape)

    @property
    def T(self) -> Triplets:
        return Triplets(self.cols, self.rows, self.vals, self.shape[::-1])

    def dense(self) -> np.ndarray:
        """The matrix as a writable C-order float64 array.

        From HUGE_PAGE_ADVICE_BYTES on, the zeros are an anonymous ``mmap``
        advised ``MADV_NOHUGEPAGE``: numpy advises huge pages for arrays that
        large, so where transparent huge pages are on each nonzero written
        would make its whole 2 MiB page resident.  A Spencer operator has
        about one nonzero in a thousand entries, so on 4 KiB pages it costs
        only the pages its nonzeros touch: at lagrangian m = 8, 141 MB of
        the 860 MB dense d, all of which huge pages made resident.  Smaller
        arrays keep ``np.zeros``, which is faster there.  A refused ``mmap``
        raises MemoryError, as ``np.zeros`` does.
        """
        nbytes = self.shape[0] * self.shape[1] * np.dtype(float).itemsize
        if nbytes < HUGE_PAGE_ADVICE_BYTES:
            M = np.zeros(self.shape)
        else:
            try:
                buf = mmap.mmap(-1, nbytes)
            except OSError as err:
                if err.errno == errno.ENOMEM:
                    raise MemoryError(str(err)) from err
                raise
            advice = getattr(mmap, "MADV_NOHUGEPAGE", None)  # Linux only
            if advice is not None:
                buf.madvise(advice)
            M = np.frombuffer(buf, float).reshape(self.shape)
        M[self.rows, self.cols] = self.vals
        return M

    def __matmul__(self, x):
        x = x if isinstance(x, Triplets) else np.asarray(x, dtype=float)
        _check_inner(self, x)
        if isinstance(x, Triplets):
            # join every entry (i, k) of self with the entries (k, j) of x
            count = np.bincount(x.rows, minlength=x.shape[0])
            start = np.cumsum(count) - count
            reps = count[self.cols]
            mine = np.repeat(np.arange(self.vals.size), reps)
            first = np.repeat(start[self.cols] - (np.cumsum(reps) - reps), reps)
            theirs = np.argsort(x.rows, kind="stable")[first + np.arange(mine.size)]
            return Triplets.summed(
                self.rows[mine],
                x.cols[theirs],
                self.vals[mine] * x.vals[theirs],
                (self.shape[0], x.shape[1]),
            )
        out = np.zeros((self.shape[0],) + x.shape[1:])
        np.add.at(out, self.rows, self.vals.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.cols])
        return out

    def __rmatmul__(self, x):
        return (self.T @ np.asarray(x).T).T


class Blocks:
    """A matrix split into its connected blocks, stacked by block shape.

    The blocks are the connected components of the bipartite graph that
    joins row i to column j wherever entry (i, j) is nonzero; after a
    permutation of rows and columns the matrix is block-diagonal with
    these blocks.  Each group stacks the k blocks of one shape (r, c), in
    the order of their first rows, and the groups go by r, then c: ``rows``
    (k, r) and ``cols`` (k, c) index the matrix, each in index order, and
    ``vals`` (k, r, c) holds the entries.  Rows and columns in no block are
    zero.

    The singular values of the matrix are those of its blocks together,
    so ranks and pseudo-inverses are taken block by block under the
    cutoff of the whole matrix (:func:`rank_cutoff` of the largest
    singular value over all blocks).
    """

    __array_ufunc__ = None  # ``ndarray @ Blocks`` defers to __rmatmul__

    def __init__(self, shape: tuple[int, int], groups: list[tuple[np.ndarray, ...]]):
        self.shape = shape
        self.groups = groups

    @classmethod
    def split(cls, A: Triplets) -> Blocks:
        m, n = A.shape
        u, v = A.rows, A.cols + m  # columns are nodes m .. m + n - 1
        root = np.arange(m + n)
        while True:  # hook each root onto the smallest root it touches, then jump
            ru, rv = root[u], root[v]
            if np.array_equal(ru, rv):
                break
            np.minimum.at(root, ru, rv)
            np.minimum.at(root, rv, ru)
            while not np.array_equal(jumped := root[root], root):
                root = jumped
        # tag each touched node with its block's shape (r, c) as r * (n + 1) + c:
        # summed per root, a row weighs n + 1 and a column 1
        touched = np.bincount(np.concatenate([u, v]), minlength=m + n) > 0
        weight = np.where(np.arange(m + n) < m, n + 1, 1) * touched
        key = np.where(touched, np.bincount(root, weights=weight).astype(np.intp)[root], -1)
        slot = np.zeros(m + n, dtype=np.intp)  # a node's block within its group
        local = np.zeros(m + n, dtype=np.intp)  # its place within its block
        groups = []
        for shape in np.unique(key[touched], return_counts=True)[0]:
            r, c = divmod(int(shape), n + 1)
            # one stable sort by root: the nodes of a block sit together, each
            # in index order, and the blocks in root order
            mine = np.flatnonzero(key == shape)
            mine = mine[np.argsort(root[mine], kind="stable")]
            rows, cols = mine[mine < m].reshape(-1, r), mine[mine >= m].reshape(-1, c)
            for block in (rows, cols):
                slot[block] = np.arange(block.shape[0])[:, None]
                local[block] = np.arange(block.shape[1])
            e = np.flatnonzero(key[u] == shape)
            vals = np.zeros((rows.shape[0], r, c))
            vals[slot[u[e]], local[u[e]], local[v[e]]] = A.vals[e]
            groups.append((rows, cols - m, vals))
        return cls(A.shape, groups)

    @property
    def T(self) -> Blocks:
        return Blocks(self.shape[::-1], [(c, r, v.transpose(0, 2, 1)) for r, c, v in self.groups])

    def rank(self) -> int:
        s = np.concatenate(
            [np.linalg.svd(v, compute_uv=False).reshape(-1) for _, _, v in self.groups] or [[]]
        )
        return int((s > rank_cutoff(s.max(initial=0.0))).sum())

    def pinv(self) -> tuple[Blocks, int]:
        """Pseudo-inverse and rank."""
        svds = [np.linalg.svd(v, full_matrices=False) for _, _, v in self.groups]
        cutoff = rank_cutoff(max((s.max(initial=0.0) for _, s, _ in svds), default=0.0))
        groups = []
        rank = 0
        for (rows, cols, _), (U, s, Vt) in zip(self.groups, svds):
            large = s > cutoff
            rank += int(large.sum())
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=large)
            groups.append((cols, rows, np.matmul(Vt.transpose(0, 2, 1) * inv[:, None, :],
                                                 U.transpose(0, 2, 1))))
        return Blocks(self.shape[::-1], groups), rank

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        _check_inner(self, x)
        out = np.zeros((self.shape[0],) + x.shape[1:])
        for rows, cols, vals in self.groups:
            out[rows] = np.einsum("krc,kc...->kr...", vals, x[cols])
        return out

    def __rmatmul__(self, x):
        return (self.T @ np.asarray(x).T).T


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


def _ad_g1(alg: GradedLieAlgebra) -> Triplets:
    """ad: g_1 -> g_{-1}^* (x) g_0, a part of the algebra; column w is the
    one-cochain x_a -> [z_w, x_a] in the (a, c) column slots of
    :func:`ahsnormal.spencer.d_triplets` at grade 0, so their product is d ad."""
    def build() -> Triplets:
        w, a, c, v = alg.sector(1, -1)
        n, n0, n1 = alg.dims
        return Triplets(a * n0 + c, w, v, (n * n0, n1))

    return alg.part("ad", build)


def _ad_rank(alg: GradedLieAlgebra) -> int:
    """Rank of :func:`_ad_g1`, a part of the algebra."""
    return alg.part("ad_rank", lambda: Blocks.split(_ad_g1(alg)).rank())


def grading_residual(alg: GradedLieAlgebra) -> float:
    """Max |C| entry violating the grading (target grade != sum of grades)."""
    (i, j), k = np.divmod(alg.C.rows, alg.n_total), alg.C.cols
    grade = np.repeat([-1, 0, 1], alg.dims)
    bad = grade[i] + grade[j] != grade[k]
    return float(np.abs(alg.C.vals[bad]).max(initial=0.0))


def jacobi_residual(alg: GradedLieAlgebra) -> float:
    """Max |[[x,y],z] + [[y,z],x] + [[z,x],y]| over all basis triples.

    T[i, j, k, l] = sum_m C[i, j, m] C[m, k, l] is the triplet product of C
    as stored, an (N^2, N) matrix, and C read as an (N, N^2) one.  The Jacobi sum is
    T[i, j, k, l] + T[j, k, i, l] + T[k, i, j, l], so an entry of T at
    (a, b, c, l) counts at (a, b, c, l), (c, a, b, l) and (b, c, a, l).  No
    grading is presumed.  The entries are dyadic rationals and every
    product and sum is exact, so the result does not depend on the order
    of summation.
    """
    N = alg.n_total
    i, j = np.divmod(alg.C.rows, N)
    T = alg.C @ Triplets(i, j * N + alg.C.cols, alg.C.vals, (N, N * N))
    (a, b), (c, l) = np.divmod(T.rows, N), np.divmod(T.cols, N)
    J = Triplets.summed(np.concatenate([a * N + b, c * N + a, b * N + c]),
                        np.concatenate([c * N + l, b * N + l, a * N + l]),
                        np.tile(T.vals, 3), T.shape)
    return float(np.abs(J.vals).max(initial=0.0))


def center_dim(alg: GradedLieAlgebra) -> int:
    """Dimension of the center of the reductive part g_0."""
    n0 = alg.dims[1]
    sl0 = alg.grade_slice(0)
    i, j, k, v = alg.nonzeros(sl0, sl0, sl0)
    return n0 - Blocks.split(Triplets(i, j * n0 + k, v, (n0, n0 * n0))).rank()


def faithfulness_ranks(alg: GradedLieAlgebra) -> dict[str, tuple[int, int]]:
    """Ranks of the two injectivity witnesses.

    Returns a dict with entries ``(rank, expected)`` for the g_0 action on
    g_{-1} and for the map g_1 -> Hom(g_{-1}, g_0), Z -> [Z, .].
    """
    n, n0, n1 = alg.dims
    c, b, i, v = alg.sector(0, -1)
    act = Triplets(c, b * n + i, v, (n0, n * n))
    return {
        "g0_on_gm1": (Blocks.split(act).rank(), n0),
        "g1_to_hom": (_ad_rank(alg), n1),
    }


# ---------------------------------------------------------------------------
# block-matrix realization oracle
# ---------------------------------------------------------------------------


def matrix_representation(alg: GradedLieAlgebra) -> np.ndarray:
    """Embed every basis element as a matrix in the defining representation.

    The embedding is exact (integer or dyadic entries).  Per graded-sector
    scalars are allowed: for the projective family the g_0 part is scaled by
    q + 1 to stay integral, which rescales brackets sector by sector but
    keeps each sector's scalar constant; :func:`cross_check_matrix_rep`
    solves for and verifies those scalars.
    """
    n, n0, n1 = alg.dims
    kind, prm = alg.kind, alg.params
    if kind == "grassmannian":
        p, q = prm["p"], prm["q"]
        s = p + q
        rep = np.zeros((alg.n_total, s, s))
        t = 0
        for a in range(p):
            for i in range(q):
                rep[t][p + i, a] = 1.0
                t += 1
        for c in range(n0):
            rep[t][:p, :p] = alg.g0_blocks["A"][c]
            rep[t][p:, p:] = alg.g0_blocks["D"][c]
            t += 1
        for a in range(p):
            for i in range(q):
                rep[t][a, p + i] = 1.0
                t += 1
        return rep
    if kind == "projective":
        q = prm["q"]
        s = q + 1
        rep = np.zeros((alg.n_total, s, s))
        for i in range(q):
            rep[i][1 + i, 0] = 1.0
            rep[n + n0 + i][0, 1 + i] = 1.0
        for c in range(n0):
            F = alg.g0_blocks["F"][c]
            M = np.zeros((s, s))
            M[1:, 1:] = (q + 1) * F
            M -= np.trace(F) * np.eye(s)
            rep[n + c] = M
        return rep
    if kind == "conformal":
        m = prm["m"]
        s = m + 2
        rep = np.zeros((alg.n_total, s, s))
        for i in range(m):
            rep[i][1 + i, 0] = 1.0
            rep[i][m + 1, 1 + i] = -1.0
            rep[n + n0 + i][0, 1 + i] = 1.0
            rep[n + n0 + i][1 + i, m + 1] = -1.0
        rep[n][0, 0] = 1.0
        rep[n][m + 1, m + 1] = -1.0
        for c in range(1, n0):
            rep[n + c][1 : m + 1, 1 : m + 1] = alg.g0_blocks["E"][c]
        return rep
    if kind in ("lagrangian", "spinorial"):
        m = prm["m"]
        s = 2 * m
        eps = 1.0 if kind == "lagrangian" else -1.0
        pairs = _pairs(m, eps)
        rep = np.zeros((alg.n_total, s, s))
        for t, (k, l) in enumerate(pairs):
            B = np.zeros((m, m))
            B[k, l] += 0.5
            B[l, k] += 0.5 * eps
            rep[t][:m, m:] = B
            rep[n + n0 + t][m:, :m] = B
        for c in range(n0):
            A = alg.g0_blocks["A"][c]
            rep[n + c][:m, :m] = A
            rep[n + c][m:, m:] = -A.T
        return rep
    raise ValueError(f"no matrix realization for kind {alg.kind!r}")


def cross_check_matrix_rep(alg: GradedLieAlgebra) -> dict:
    """Compare the structure tensor against the block-matrix realization.

    For every basis pair the matrix commutator must equal the embedded
    table bracket up to one fixed scalar per graded sector.  The comparison
    is done by exact cross-multiplication (no division), so a faithful
    transcription yields max_discrepancy == 0.0 exactly.

    The pairs i < j of one sector (g_x, g_y), g_x <= g_y, are compared in
    batches of at most CHUNK_ENTRIES matrix entries, in the order i, then
    j.  A pair where exactly one side vanishes counts its other side as
    discrepancy.  The sector's scalar is read from its first pair where
    neither vanishes, at the largest |table| entry.  A batch's table is
    the product of its pairs' rows of C, taken from the triplets, with the
    realization.  All entries are dyadic, so every product and sum is exact.

    Returns:
        dict with ``sector_scalars`` (one float per sector with nonzero
        brackets) and ``max_discrepancy``.
    """
    rep = matrix_representation(alg)
    N, s = alg.n_total, rep.shape[1]
    step = max(1, CHUNK_ENTRIES // (s * s))
    start = np.searchsorted(alg.C.rows, np.arange(N * N + 1))  # row r of C is start[r]:start[r + 1]
    refs: dict[str, tuple[float, float]] = {}  # sector -> (matrix, table) reference entries
    worst = 0.0
    for gx in (-1, 0, 1):
        for gy in range(gx, 2):
            sx, sy = alg.grade_slice(gx), alg.grade_slice(gy)
            if gx == gy:
                I, J = np.triu_indices(sx.stop - sx.start, 1)
            else:
                I, J = np.indices((sx.stop - sx.start, sy.stop - sy.start)).reshape(2, -1)
            key = f"({gx},{gy})"
            for c in range(0, I.size, step):
                i, j = I[c : c + step] + sx.start, J[c : c + step] + sy.start
                r = i * N + j
                count = start[r + 1] - start[r]
                e = np.repeat(start[r] - np.cumsum(count) + count, count) + np.arange(count.sum())
                table = Triplets(np.repeat(np.arange(i.size), count), alg.C.cols[e], alg.C.vals[e],
                                 (i.size, N)) @ rep.reshape(N, s * s)
                mat = (rep[i] @ rep[j] - rep[j] @ rep[i]).reshape(-1, s * s)
                tmax, mmax = np.abs(table).max(1), np.abs(mat).max(1)
                lone = (tmax == 0.0) != (mmax == 0.0)
                worst = max(worst, tmax[lone].max(initial=0.0), mmax[lone].max(initial=0.0))
                both = np.flatnonzero((tmax != 0.0) & (mmax != 0.0))
                if both.size == 0:
                    continue
                if key not in refs:
                    flat = np.abs(table[both[0]]).argmax()
                    refs[key] = (mat[both[0], flat], table[both[0], flat])
                m0, t0 = refs[key]
                worst = max(worst, float(np.abs(mat[both] * t0 - table[both] * m0).max()))
    scalars = {key: m0 / t0 for key, (m0, t0) in refs.items()}
    return {"sector_scalars": scalars, "max_discrepancy": float(worst)}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize(alg: GradedLieAlgebra) -> dict:
    """JSON-ready description: dims, labels, pairing, sparse structure constants.

    Structure constants are emitted as (i, j, k, value) quadruples for the
    nonzero entries with i < j; the i > j half follows by antisymmetry.
    """
    (i, j), k = np.divmod(alg.C.rows, alg.n_total), alg.C.cols
    keep = i < j
    triples = [list(t) for t in zip(i[keep].tolist(), j[keep].tolist(), k[keep].tolist(),
                                    alg.C.vals[keep].tolist())]
    return {
        "kind": alg.kind,
        "params": dict(alg.params),
        "dims": list(alg.dims),
        "labels": list(alg.labels),
        "pairing": alg.pairing.tolist(),
        "structure_constants": triples,
    }
