"""Shared test helpers: a cached algebra factory, the parameter grid, a
recorder of trace-map builds, the structure tensor as a dense array and
copies of an algebra with a dense one put in, broken copies of an
algebra, an explicit basis of the harmonic two-cochains, and earlier
library code kept as references: the bracket on the dense tensor, the
block split with its numbering tables, the Spencer differential as an
einsum, the Hodge split of a two-cochain, the column-by-column trace-map
assembly, the g_0-trace of a grade-0 two-cochain, the projection onto the
raw curvature symmetry classes and the Ricci contraction of a raw
curvature tensor."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from ahsnormal import build_algebra, graded_algebra, normalization
from ahsnormal.graded_algebra import Blocks, Triplets, _pairs, rank_cutoff
from ahsnormal.normalization import deformation_delta_kappa0, trace_kappa0
from ahsnormal.spencer import (
    OneCochain,
    TwoCochain,
    _Complex,
    _check_two,
    _value_dim,
    dstar_matrix,
)
from ahsnormal.testkit import _block_trace_rows

# Full parameter grid: every kind over its validity range, with the
# degenerate sl(2) = grassmannian(1, 1) included for structural checks.
GRID = (
    [("conformal", {"m": m}) for m in range(3, 7)]
    + [("grassmannian", {"p": p, "q": q}) for p in range(1, 5) for q in range(p, 5)]
    + [("projective", {"q": q}) for q in range(2, 5)]
    + [("lagrangian", {"m": m}) for m in range(3, 7)]
    + [("spinorial", {"m": m}) for m in range(3, 7)]
)

# The 17-point default grid of ``ahsnormal verify``.
VERIFY_GRID = (
    [("conformal", {"m": m}) for m in range(3, 6)]
    + [("grassmannian", {"p": p, "q": q}) for p in range(1, 4) for q in range(p, 4)]
    + [("projective", {"q": q}) for q in range(2, 4)]
    + [("lagrangian", {"m": m}) for m in range(3, 6)]
    + [("spinorial", {"m": m}) for m in range(3, 6)]
)

# The largest tested point of each kind.
LARGEST = [
    ("conformal", {"m": 6}),
    ("grassmannian", {"p": 4, "q": 4}),
    ("projective", {"q": 4}),
    ("lagrangian", {"m": 6}),
    ("spinorial", {"m": 6}),
]

# One small representative per kind, for tests where the property is
# parameter-independent and the full grid would only add runtime.
SMALL = [
    ("conformal", {"m": 4}),
    ("grassmannian", {"p": 2, "q": 3}),
    ("projective", {"q": 3}),
    ("lagrangian", {"m": 3}),
    ("spinorial", {"m": 4}),
]


def grid_id(value) -> str:
    """Test-id fragment for one parametrize argument (kind or params)."""
    if isinstance(value, dict):
        return "-".join(str(value[k]) for k in sorted(value))
    return str(value)


@functools.lru_cache(maxsize=None)
def _cached(kind: str, items: tuple) -> object:
    return build_algebra(kind, **dict(items))


def algebra(kind: str, **params):
    """Cached algebra factory; tests must not mutate the returned object."""
    return _cached(kind, tuple(sorted(params.items())))


@pytest.fixture
def trace_map_builds(monkeypatch):
    """Empty the shared algebras of ``build_algebra`` and the cached ones
    here, so that every algebra built after this starts with no parts, then
    list the algebra of every ``normalization.trace_map_matrix`` call."""
    builds = []
    real = normalization.trace_map_matrix

    def counting(alg):
        builds.append(alg)
        return real(alg)

    monkeypatch.setattr(normalization, "trace_map_matrix", counting)
    graded_algebra._shared.cache_clear()
    _cached.cache_clear()
    return builds


def ref_dense_C(alg) -> np.ndarray:
    """The structure tensor as a new dense (N, N, N) array, C[i, j, k] the
    value of the triplet at row i * N + j and column k."""
    N = alg.n_total
    C = np.zeros((N, N, N))
    i, j = np.divmod(alg.C.rows, N)
    C[i, j, alg.C.cols] = alg.C.vals
    return C


def triplets_from_dense(A: np.ndarray) -> Triplets:
    """The nonzeros of a 2-d array as triplets, in C order."""
    rows, cols = np.divmod(np.flatnonzero(A), A.shape[1])
    return Triplets(rows, cols, A[rows, cols], A.shape)


def with_dense_C(alg, C: np.ndarray):
    """A copy of ``alg`` whose structure constants are the nonzeros of the
    dense (N, N, N) array ``C``."""
    N = alg.n_total
    return dataclasses.replace(alg, C=triplets_from_dense(np.reshape(C, (N * N, N))))


def ref_bracket(alg, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] of two coordinate vectors, summed over the dense tensor."""
    return np.einsum("i,j,ijk->k", x, y, ref_dense_C(alg))


def z_flips(alg):
    """Copies of the algebra with one [z, x] bracket (z in g_1, x in g_{-1})
    sign-flipped, one per nonzero structure constant of that block."""
    sz, sx = alg.grade_slice(1), alg.grade_slice(-1)
    dense = ref_dense_C(alg)
    for z, x, k in np.argwhere(dense[sz, sx] != 0.0):
        C = dense.copy()
        C[z + sz.start, x, k] *= -1.0
        C[x, z + sz.start, k] *= -1.0
        yield with_dense_C(alg, C)


def ref_alternating_injection(n: int, nv: int) -> np.ndarray:
    pairs = _pairs(n, -1)
    M = np.zeros((n * n * nv, len(pairs) * nv))
    for t, (a, b) in enumerate(pairs):
        for k in range(nv):
            M[(a * n + b) * nv + k, t * nv + k] = 1.0
            M[(b * n + a) * nv + k, t * nv + k] = -1.0
    return M


def ref_harmonic_basis(alg, grade: int, block_trace_free: bool = False) -> np.ndarray:
    """Basis of the harmonic alternating two-cochains at ``grade``.

    Columns are vectorized (n, n, nv) arrays in the kernel of the
    codifferential; with ``block_trace_free`` (grassmannian grade 0) the
    per-pair gl-block trace of the values vanishes as well.  Built by a
    dense SVD through an explicit alternating injection.
    """
    n = alg.dims[0]
    nv = _value_dim(alg, grade)
    alt = ref_alternating_injection(n, nv)
    rows = [dstar_matrix(alg, grade)]
    if block_trace_free:
        rows.append(_block_trace_rows(alg, grade))
    M = np.vstack(rows) @ alt
    _, s, vt = np.linalg.svd(M)
    rank = int((s > rank_cutoff(s.max(initial=0.0))).sum())
    return alt @ vt[rank:].T


def ref_blocks_split(A: Triplets) -> Blocks:
    """``Blocks.split`` as it was: the blocks numbered by ``np.unique`` of
    their roots, each row and column placed through per-node tables, and
    one pass over the block numbers per shape."""
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
    # number the blocks, then place each row and column inside its block:
    # rows before columns, each in index order
    nodes = np.flatnonzero(np.bincount(np.concatenate([u, v]), minlength=m + n))
    _, block = np.unique(root[nodes], return_inverse=True)
    is_row = nodes < m
    nrows = np.bincount(block[is_row], minlength=block.max(initial=-1) + 1)
    ncols = np.bincount(block[~is_row], minlength=nrows.size)
    place = np.empty(nodes.size, dtype=np.intp)
    place[np.argsort(block, kind="stable")] = np.arange(nodes.size)
    first = np.cumsum(nrows + ncols) - (nrows + ncols)
    local = np.zeros(m + n, dtype=np.intp)
    local[nodes] = place - first[block] - np.where(is_row, 0, nrows[block])
    block_of = np.zeros(m + n, dtype=np.intp)
    block_of[nodes] = block
    # stack the blocks of each shape (r, c)
    shapes, group = np.unique(nrows * (n + 1) + ncols, return_inverse=True)
    slot = np.zeros(nrows.size, dtype=np.intp)
    groups = []
    for g, (r, c) in enumerate(zip(*np.divmod(shapes, n + 1))):
        members = np.flatnonzero(group == g)
        slot[members] = np.arange(members.size)
        mine = nodes[group[block] == g]
        rmine, cmine = mine[mine < m], mine[mine >= m]
        rows = np.zeros((members.size, r), dtype=np.intp)
        cols = np.zeros((members.size, c), dtype=np.intp)
        rows[slot[block_of[rmine]], local[rmine]] = rmine
        cols[slot[block_of[cmine]], local[cmine]] = cmine - m
        e = np.flatnonzero(group[block_of[u]] == g)
        vals = np.zeros((members.size, r, c))
        vals[slot[block_of[u[e]]], local[u[e]], local[v[e]]] = A.vals[e]
        groups.append((rows, cols, vals))
    return Blocks(A.shape, groups)


def ref_harmonic_decompose(alg, t: TwoCochain) -> tuple[TwoCochain, OneCochain]:
    """Split t = harmonic + d(psi) with d*(harmonic) = 0 and psi of minimal norm.

    Solves the normal equation (d* d) psi = d* t with the pseudo-inverse of
    d* d from the algebra's cached Spencer complex; the minimal-norm solution
    makes the split deterministic.
    """
    _check_two(alg, t)
    cx = _Complex(alg)
    P, S = cx.dstar_d_pinv(t.grade)[0], cx.dstar(t.grade)
    psi = OneCochain(t.grade + 1, (P @ (S @ t.data.reshape(-1))).reshape(alg.dims[0], -1))
    harm = TwoCochain(t.grade, t.data - ref_spencer_d(alg, psi).data)
    return harm, psi


def ref_spencer_d(alg, psi: OneCochain) -> TwoCochain:
    """(d psi)(X, Y) = [psi(X), Y] - [psi(Y), X] as an einsum over the dense
    block C[g_grade, g_{-1}, .], the library's route before d was applied
    from its triplets; it shares no code with ``d_triplets``."""
    half = np.einsum("au,ubk->abk", psi.data, alg.block(psi.grade, -1))
    return TwoCochain(psi.grade - 1, half - half.transpose(1, 0, 2))


def ref_brute_force_trace_map(alg) -> np.ndarray:
    """Dense matrix of Gamma -> Tr(delta kappa0(Gamma)), column by basis column.

    Each column applies ``deformation_delta_kappa0`` and then
    ``trace_kappa0`` to one basis cochain E_cu, so it shares no code
    with the pairing-scaled d* d assembly in
    ``normalization.trace_map_matrix`` and serves as its independent oracle.
    """
    n, _, n1 = alg.dims
    M = np.zeros((n * n, n * n1))
    for c in range(n):
        for u in range(n1):
            E = np.zeros((n, n1))
            E[c, u] = 1.0
            col = trace_kappa0(alg, deformation_delta_kappa0(alg, OneCochain(1, E)))
            M[:, c * n1 + u] = col.reshape(-1)
    return M


def ref_riemann_projection(T: np.ndarray, kind: str) -> np.ndarray:
    """Project a four-index tensor onto the symmetry class of ``kind``.

    conformal: antisymmetric in (0,1) and (2,3), symmetric under pair
    exchange, and satisfying the cyclic identity on the last three indices.
    projective: antisymmetric in (2,3) and cyclic-free on (1,2,3); no pair
    metric, so no pair-exchange symmetry is imposed.
    """
    T = np.asarray(T, dtype=float)
    if kind == "conformal":
        R = 0.5 * (T - T.transpose(1, 0, 2, 3))
        R = 0.5 * (R - R.transpose(0, 1, 3, 2))
        R = 0.5 * (R + R.transpose(2, 3, 0, 1))
        cyc = R + np.einsum("iklj->ijkl", R) + np.einsum("iljk->ijkl", R)
        return R - cyc / 3.0
    if kind == "projective":
        R = 0.5 * (T - T.transpose(0, 1, 3, 2))
        cyc = R + np.einsum("iklj->ijkl", R) + np.einsum("iljk->ijkl", R)
        return R - cyc / 3.0
    raise ValueError(f"kind {kind!r} has no raw curvature symmetry class")


def ref_trace_g0(alg, phi: TwoCochain) -> np.ndarray:
    """g_0-trace data of a grade-0 two-cochain: (Tr_g0 phi)(X, Y) =
    tr(ad(phi(X, Y))|g_{-1})."""
    _check_two(alg, phi, 0, "phi")
    return np.einsum("abc,c->ab", phi.data, np.einsum("caa->c", alg.block(0, -1)))


def ref_ricci_from_riemann(R: np.ndarray) -> np.ndarray:
    """Ricci contraction Ric[j, k] = sum_l R[l, j, l, k]."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 4:
        raise ValueError("Riemann tensor must have four indices")
    return np.einsum("ljlk->jk", R)
