"""Normalization of soldered Cartan connections: curvature traces and the
deformation tensor.

Given the grade-0 part kappa0 of the curvature of a soldered Cartan
connection, the normal connection differs from it by a unique grade-1
one-cochain Gamma (the deformation tensor), characterized by

    Tr(kappa0 - delta kappa0(Gamma)) = 0,

where delta kappa0(Gamma)(X, Y) = [Gamma(X), Y] - [Gamma(Y), X] is the
curvature shift induced by deforming the connection and Tr is the Ricci-type
trace pairing two-cochains down to bilinear forms on g_{-1}.  The module
computes Gamma, a grade-1 OneCochain, along two independent routes:

* closed-form trace formulas, one per structure kind, and
* a linear-solve oracle that assembles the map Gamma -> Tr(delta
  kappa0(Gamma)) on a basis and inverts it.

Conventions fixed here and recorded in CLI metadata: the normalized
curvature is kbar = k - delta(k); the trace data T[a, b] always has its
row index a as the *first* curvature argument; the conformal and projective
families embed a Riemann tensor R into kappa0 with signs -1 and +1
respectively (kappa0(X, Y) acts on g_{-1} as -R(X, Y) and +R(X, Y)), the
sign being pinned by the constant-curvature spot values.
"""

from __future__ import annotations

import numpy as np

from .graded_algebra import Blocks, GradedLieAlgebra, Triplets, _pair_table, _pairs
from .spencer import (OneCochain, TwoCochain, _check_one, _check_two, _complex, spencer_d,
                      spencer_dstar)

# Fixed thresholds, each relative to max(1, largest entry), of
# fiber_constancy_check, torsion_is_harmonic and oracle_gamma's solve.
FIBER_TOL = 1e-10
FIBER_HARMONIC_TOL = 1e-9
ORACLE_RESIDUAL_TOL = 1e-9


class NonUniquenessError(RuntimeError):
    """The normalization problem has a nontrivial kernel (e.g. sl(2))."""

    def __init__(self, message: str, kernel_dim: int = 0):
        super().__init__(message)
        self.kernel_dim = kernel_dim


# ---------------------------------------------------------------------------
# trace operators
# ---------------------------------------------------------------------------


def trace_kappa0(alg: GradedLieAlgebra, kappa0: TwoCochain) -> np.ndarray:
    """Ricci-type trace (Tr k)(X, Y) = sum_a <z^a, k(x_a, X)(Y)> as an (n, n) array.

    Row index = first argument X.  Because {z^a} is dual to {x_a}, the
    pairing collapses and the contraction needs only the g_0 action on
    g_{-1}; this is deliberately a different code path from the Spencer
    codifferential, so the identity ``Tr k = <d* k, .>`` is a genuine
    cross-check between the two.

    The sum runs over the nonzero entries of the action C[g_0, g_{-1}] in
    C order, one ``np.bincount`` over the (X, Y) slots and no BLAS call; on
    finite input it equals the dense contraction
    ``einsum("iac,cbi->ab", kappa0, C[g_0, g_{-1}])`` bit for bit.
    """
    _check_two(alg, kappa0, 0, "kappa0")
    act = alg.block(0, -1)
    n = alg.dims[0]
    c, b, i = np.nonzero(act != 0.0)
    terms = act[c, b, i][:, None] * kappa0.data[i, :, c]  # row k: over X, at Y = b[k]
    return np.bincount((np.arange(n) * n + b[:, None]).ravel(), terms.ravel(), n * n).reshape(n, n)


def trace_kappa0_via_dstar(alg: GradedLieAlgebra, kappa0: TwoCochain) -> np.ndarray:
    """Same bilinear form computed through the codifferential and the pairing."""
    _check_two(alg, kappa0, 0, "kappa0")
    return spencer_dstar(alg, kappa0).data @ alg.pairing


def trace_g0(alg: GradedLieAlgebra, phi: TwoCochain) -> np.ndarray:
    """g_0-trace data: (Tr_g0 phi)(X, Y) = tr(ad(phi(X, Y))|g_{-1})."""
    _check_two(alg, phi, 0, "phi")
    return _g0_trace(phi, alg.block(0, -1))


def block_trace_g0(alg: GradedLieAlgebra, phi: TwoCochain, block: str = "D") -> np.ndarray:
    """Plain block trace of the g_0 values, for the kinds with block g_0.

    For the grassmannian family ``block`` selects the gl(p) block ("A") or
    the gl(q) block ("D"); the two determine each other because the values
    are trace-free overall.
    """
    _check_two(alg, phi, 0, "phi")
    if block not in alg.g0_blocks:
        raise ValueError(f"algebra kind {alg.kind!r} has no {block!r} block")
    return _g0_trace(phi, alg.g0_blocks[block])


def _g0_trace(phi: TwoCochain, mats: np.ndarray) -> np.ndarray:
    """(X, Y) -> sum_c phi(X, Y)_c tr(mats_c) for g_0 basis matrices mats_c."""
    return np.einsum("abc,c->ab", phi.data, np.einsum("caa->c", mats))


# ---------------------------------------------------------------------------
# curvature shift under deformation
# ---------------------------------------------------------------------------


def deformation_delta_kappa0(alg: GradedLieAlgebra, gamma: OneCochain) -> TwoCochain:
    """Curvature shift delta kappa0(Gamma)(X, Y) = [Gamma(X), Y] - [Gamma(Y), X].

    This is the Spencer differential of Gamma viewed as a grade-1
    one-cochain, so it is :func:`ahsnormal.spencer.spencer_d` after the
    checks that Gamma is a deformation tensor of this algebra.
    """
    _check_one(alg, gamma, 1, "gamma")
    return spencer_d(alg, gamma)


def torsion_is_harmonic(alg: GradedLieAlgebra, torsion: TwoCochain) -> dict:
    """Check d*(torsion) = 0, the grade -1 half of the normalization condition,
    up to ``FIBER_HARMONIC_TOL`` relative to max(1, max|torsion|)."""
    _check_two(alg, torsion, -1, "torsion")
    res = spencer_dstar(alg, torsion)
    scale = max(1.0, float(np.abs(torsion.data).max()))
    residual = float(np.abs(res.data).max())
    passed = residual <= FIBER_HARMONIC_TOL * scale
    return {"residual": residual, "scale": scale, "passed": bool(passed)}


# ---------------------------------------------------------------------------
# closed-form deformation tensors
# ---------------------------------------------------------------------------


def _gamma_conformal(m: int, ricci: np.ndarray) -> np.ndarray:
    """Conformal deformation tensor from Ricci data.

    Gamma_ij = -1/(m-2) * (Ric_ij - delta_ij * scalar / (2(m-1))), applied
    entrywise: Gamma = -P, minus the Schouten tensor, and the normalized
    curvature is the embedded Weyl tensor W = R - P (.) g.  The inversion
    is exact when the Ricci data is symmetric (which holds for curvature
    operators built from torsion-free, Bianchi respecting Riemann tensors).
    """
    scalar = float(np.trace(ricci))
    return (-1.0 / (m - 2)) * (ricci - (scalar / (2 * (m - 1))) * np.eye(m))


def _gamma_projective(q: int, ricci: np.ndarray) -> np.ndarray:
    """Projective deformation tensor from Ricci data.

    Writing Ric for the contraction R[l, j, l, k] of R[i, j, k, l], the tensor is
    Gamma_jk = (Ric_jk + q * Ric_kj) / (q^2 - 1).  This is Gamma = P, the
    projective Schouten tensor Ric_sym / (q - 1) - Ric_alt / (q + 1), and
    the normalized curvature is the embedded projective Weyl tensor
    W^a_bkl = R^a_bkl - delta^a_k P_lb + delta^a_l P_kb + delta^a_b (P_kl - P_lk).
    """
    return (ricci + q * ricci.T) / (q * q - 1.0)


def _gamma_grassmannian(p: int, q: int, trace_r: np.ndarray, trace_g0_2: np.ndarray) -> np.ndarray:
    """Grassmannian deformation tensor from the two trace datasets.

    ``trace_r`` is the Ricci-type trace data of kappa0 and ``trace_g0_2``
    the plain gl(q)-block trace data, both as (pq, pq) arrays whose row
    index is the first curvature argument, with the flat index a*q + i for
    the basis vector x^a_i.  With s = p + q:

    Gamma[a,k,c,l] = (s*T[a,k,c,l] + 2*T[c,k,a,l] + s*G2[c,k,a,l] + 2*G2[a,k,c,l]) / (s^2 - 4)
    """
    s = p + q
    if s < 3:
        raise NonUniquenessError(
            f"grassmannian trace inversion needs p + q >= 3, got p = {p}, q = {q}",
            kernel_dim=1,
        )
    n = p * q
    T4 = np.asarray(trace_r, dtype=float).reshape(p, q, p, q)
    G24 = np.asarray(trace_g0_2, dtype=float).reshape(p, q, p, q)
    Ts = T4.transpose(2, 1, 0, 3)
    G2s = G24.transpose(2, 1, 0, 3)
    G4 = (s * T4 + 2.0 * Ts + s * G2s + 2.0 * G24) / (s * s - 4.0)
    return G4.reshape(n, n)


def _gamma_pair(m: int, trace_r: np.ndarray, eps: int) -> np.ndarray:
    """Closed form for the pair kinds, g_{-1} the eps-symmetric square of R^m.

    With T[a,b,c,d] the trace data expanded to all index pairs by
    T[b,a,c,d] = T[a,b,d,c] = eps * T[a,b,c,d],

    Gamma[p,q,k,l] = (m*T[k,l,p,q] + T[q,l,p,k] + eps*T[q,k,p,l]) / (eps*(m(m+eps) - 2))

    in all-pairs coefficients: the denominator is m(m+1) - 2 for the
    lagrangian kind (eps = +1) and 2 - m(m-1) for the spinorial kind
    (eps = -1), where the trace of the curvature shift reproduces the
    deformation tensor with an overall minus.  The formula inverts the
    trace map exactly on deformation tensors that are symmetric under
    exchange of the input and output pairs, which is the class produced by
    normalizing an admissible connection.
    """
    slot, sign = _pair_table(m, eps)
    s, t = slot[:, :, None, None], slot  # the pairs (a, b) and (c, d)
    T4 = np.where((s >= 0) & (t >= 0), sign[:, :, None, None] * sign * trace_r[s, t], 0.0)
    G4 = (
        m * np.einsum("klpq->pqkl", T4)
        + np.einsum("qlpk->pqkl", T4)
        + eps * np.einsum("qkpl->pqkl", T4)
    ) / (eps * (m * (m + eps) - 2.0))
    G4 = 0.5 * (G4 + eps * G4.transpose(1, 0, 2, 3))
    G4 = 0.5 * (G4 + eps * G4.transpose(0, 1, 3, 2))
    return _pair_coefficients(G4, _pairs(m, eps))


def _pair_coefficients(F: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Pair-basis matrix G[t, u] = w_u * F[k_u, l_u, k_t, l_t] of an all-pairs
    tensor, where pairs[t] = (k_t, l_t) and w = 1 on pairs with k = l, else 2."""
    k, l = np.array(pairs).T
    w = np.where(k == l, 1.0, 2.0)
    return w * F[k, l, k[:, None], l[:, None]]


def gamma_closed_form(alg: GradedLieAlgebra, kappa0: TwoCochain) -> OneCochain:
    """Gamma by the structure kind's closed-form formula, from the trace data
    of kappa0; sl(2), which has none, raises NonUniquenessError."""
    T = trace_kappa0(alg, kappa0)
    kind, prm = alg.kind, alg.params
    if kind == "conformal":
        G = _gamma_conformal(prm["m"], -T)
    elif kind == "projective":
        # T = Ric^T for curvature embedded with the projective sign
        G = _gamma_projective(prm["q"], T.T)
    elif kind == "grassmannian":
        G = _gamma_grassmannian(prm["p"], prm["q"], T, block_trace_g0(alg, kappa0, "D"))
    elif kind in ("lagrangian", "spinorial"):
        G = _gamma_pair(prm["m"], T, 1 if kind == "lagrangian" else -1)
    else:
        raise ValueError(f"no closed form for kind {kind!r}")
    return OneCochain(1, G)


# ---------------------------------------------------------------------------
# curvature embeddings for the raw-tensor kinds
# ---------------------------------------------------------------------------


def curvature_from_riemann(alg: GradedLieAlgebra, R: np.ndarray) -> TwoCochain:
    """Embed a Riemann-type tensor R[i, j, k, l] as a grade-0 two-cochain.

    R[a, b, k, l] is read as R^a_{bkl}: the endomorphism indices (a, b)
    come first and the two-form indices (k, l) last, so the Ricci
    contraction is Ric_bl = R^a_{bal}.
    kappa0(x_k, x_l) is the g_0 element acting on g_{-1} as -R(x_k, x_l)
    for the conformal kind and +R(x_k, x_l) for the projective kind; the
    signs are pinned by the constant-curvature spot values and recorded in
    the CLI metadata.
    """
    R = np.asarray(R, dtype=float)
    n = alg.dims[0]
    if R.shape != (n, n, n, n):
        raise ValueError(f"Riemann tensor must have shape {(n, n, n, n)}")
    if alg.kind == "conformal":
        m = alg.params["m"]
        data = np.zeros((n, n, alg.dims[1]))
        for t, (u, v) in enumerate(_pairs(m, -1)):
            data[:, :, 1 + t] = -R[u, v, :, :]
        return TwoCochain(0, data)
    if alg.kind == "projective":
        q = alg.params["q"]
        data = np.einsum("jikl->klij", R).reshape(n, n, q * q)
        return TwoCochain(0, data)
    raise ValueError(f"kind {alg.kind!r} does not take raw Riemann input")


# ---------------------------------------------------------------------------
# oracle: assemble and solve the trace map
# ---------------------------------------------------------------------------


def trace_map_matrix(alg: GradedLieAlgebra) -> Triplets:
    """The map Gamma -> Tr(delta kappa0(Gamma)), as triplets.

    Rows are flattened (x, v) trace slots, columns flattened (c, u) slots of
    g_{-1}^* (x) g_1, both in C order.  Tr(delta kappa0(Gamma))[x, v] is
    <z_v, x_v> d*(d Gamma)[x, v], so the map is d* d on grade-1 one-cochains
    with row (x, v) scaled by the (diagonal) pairing entry of v; d* d comes
    from the algebra's cached Spencer complex.
    """
    M = _complex(alg).dstar_d(0)
    return Triplets(M.rows, M.cols, np.diag(alg.pairing)[M.rows % alg.dims[2]] * M.vals, M.shape)


def _trace_map_inverse(alg: GradedLieAlgebra) -> tuple[Triplets, Blocks, int]:
    """The trace map's triplets, their block pseudo-inverse and the rank.

    Factored once per algebra content, as a part of the algebra's cached
    Spencer complex (:func:`ahsnormal.spencer._complex`), whose key holds
    all that :func:`trace_map_matrix` reads; an algebra whose structure
    constants change therefore never gets a stale factorization.  The
    returned arrays are shared and read-only.
    """

    def factor():
        M = trace_map_matrix(alg)
        return (M, *Blocks.split(M).pinv())

    return _complex(alg).part("trace_map", factor)


def oracle_gamma(alg: GradedLieAlgebra, kappa0: TwoCochain) -> OneCochain:
    """Solve Tr(delta kappa0(Gamma)) = Tr(kappa0) for Gamma by least squares.

    The trace map (:func:`trace_map_matrix`, the pairing-scaled d* d
    triplets) is inverted one connected block at a time
    (:meth:`ahsnormal.graded_algebra.Blocks.pinv`), which also gives its kernel
    dimension.  The factorization depends only on the algebra, so it is
    made once per algebra content and reused by every later solve and by
    :func:`uniqueness_certificate`; only Tr kappa0 is computed per call.
    ``ORACLE_RESIDUAL_TOL`` bounds only the solve's residual, relative to
    max(1, max|Tr kappa0|); it plays no part in the kernel count.

    Raises:
        NonUniquenessError: the assembled trace map has a nontrivial kernel
            (the sl(2) case).
        ValueError: the solve leaves a residual beyond that bound, i.e. the
            trace data is not in the range of the map.
    """
    n, _, n1 = alg.dims
    M, Minv, rank = _trace_map_inverse(alg)
    kernel_dim = M.shape[1] - rank
    if kernel_dim > 0:
        raise NonUniquenessError(
            f"trace map has a {kernel_dim}-dimensional kernel; "
            "the normalization problem is degenerate for this structure",
            kernel_dim=kernel_dim,
        )
    b = trace_kappa0(alg, kappa0).reshape(-1)
    x = Minv @ b
    residual = float(np.abs(M @ x - b).max())
    scale = max(1.0, float(np.abs(b).max()))
    if not residual <= ORACLE_RESIDUAL_TOL * scale:  # NaN fails too
        raise ValueError(f"trace data outside the range of the trace map (residual {residual:.3e})")
    return OneCochain(1, x.reshape(n, n1))


def uniqueness_certificate(alg: GradedLieAlgebra) -> dict:
    """Kernel dimension of the trace map, certifying uniqueness of the
    normalization.

    ``kernel_dim`` is that of :func:`trace_map_matrix`, counted from the
    same per-block SVD that :func:`oracle_gamma` solves with (and shares
    with it per algebra); it equals dim H21 and is zero precisely on the
    valid parameter ranges, while sl(2) has a one-dimensional kernel.
    """
    M, _, rank = _trace_map_inverse(alg)
    kernel_dim = M.shape[1] - rank
    return {
        "kind": alg.kind,
        "params": dict(alg.params),
        "kernel_dim": kernel_dim,
        "unique": bool(kernel_dim == 0),
        "normalizable": alg.normalizable,
    }


def fiber_constancy_check(
    alg: GradedLieAlgebra,
    kappa0: TwoCochain,
    kappa_m1: TwoCochain,
    tau: np.ndarray,
) -> dict:
    """The normalization condition does not depend on the fiber coordinate.

    Moving up the fiber by exp(tau), tau in g_1, shifts the grade-0
    curvature component by the bracket of tau with the grade -1 component:
    kappa0' = kappa0 - [tau, kappa_m1(., .)].  When kappa_m1 is harmonic
    (d* kappa_m1 = 0), the codifferential of the shift vanishes, so
    d* kappa0' = d* kappa0 and the normalization condition is fiberwise
    constant.  ``tau`` is the g_1 coordinate vector of the displacement at
    the point being modeled; the change may be at most ``FIBER_TOL``.

    Raises:
        ValueError: kappa_m1 or kappa0 has the wrong shape or grade, or
            kappa_m1 is not harmonic, so the statement's hypothesis fails.
    """
    _check_two(alg, kappa_m1, -1, "kappa_m1")
    _check_two(alg, kappa0, 0, "kappa0")
    tau = np.asarray(tau, dtype=float).reshape(-1)
    if tau.shape != (alg.dims[2],):
        raise ValueError("tau must be a g_1 coordinate vector")
    harm = torsion_is_harmonic(alg, kappa_m1)
    if not harm["passed"]:
        raise ValueError(
            f"kappa_m1 is not harmonic (d* residual {harm['residual']:.3e}); "
            "fiber constancy presupposes a harmonic grade -1 component"
        )
    shift = kappa_m1.data @ np.tensordot(tau, alg.block(1, -1), 1)
    moved = TwoCochain(0, kappa0.data - shift)
    d1 = spencer_dstar(alg, moved).data
    d0 = spencer_dstar(alg, kappa0).data
    scale = max(1.0, float(np.abs(d0).max()))
    residual = float(np.abs(d1 - d0).max())
    return {"residual": residual, "scale": scale, "passed": bool(residual <= FIBER_TOL * scale)}
