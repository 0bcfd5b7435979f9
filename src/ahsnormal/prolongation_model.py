"""Algebraic model of the prolongation tower of an AHS structure.

The first prolongation of a G0-structure carries a torsion two-cochain that
changes by a Spencer differential when the connection form is changed, and
transforms under the structure group B = B0 exp(g_1) through its grade-0
factor alone.  This module realizes those statements on the graded algebra:

* :class:`FrameChange` packages a group element b = b0 exp(Z) by the adjoint
  matrices of b0 on the three graded pieces together with the g_1 vector Z;
* :func:`torsion_equivariance` is the b0-action on torsion; the exp(Z)
  factor acts trivially because [[Z, X], Y] - [[Z, Y], X] = 0 for X, Y in
  the abelian part g_{-1} (a Jacobi identity consequence, verified exactly);
* :func:`second_torsion_reduction` recovers the free g_0-valued component
  of the next level's torsion from its values on all of (g_{-1} + g_0),
  which are forced to a projected bracket off the g_{-1} pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graded_algebra import GradedLieAlgebra
from .spencer import OneCochain, TwoCochain, _check_one, _check_two, _Complex

# second_torsion_reduction's bound on its residuals, relative to max(1, max|input|)
SECOND_TORSION_TOL = 1e-10


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26(4), 2005): the degree-24 Taylor polynomial of M / 2^s,
    with s the least such that ||M / 2^s||_1 <= 2, squared s times.  The
    truncated tail is below 2e-17 relative before the squarings.
    """
    norm = float(np.abs(M).sum(axis=0).max(initial=0.0))
    s = max(0, int(np.ceil(np.log2(norm / 2.0)))) if norm > 0.0 else 0
    X = M / 2.0**s
    E = term = np.eye(M.shape[0])
    for k in range(1, 25):
        term = term @ X / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


@dataclass
class FrameChange:
    """A structure-group element b = b0 exp(Z) acting on adapted frames.

    ``ad_m1``, ``ad_0``, ``ad_p1`` are the adjoint matrices of the grade-0
    factor b0 on g_{-1}, g_0 and g_1 (columns are images of basis vectors),
    and ``Z`` holds the g_1 coordinates of the exponential factor.  Elements
    produced by :meth:`from_g0` are exponentials of g_0 adjoint actions and
    therefore bracket automorphisms preserving each graded piece.
    """

    ad_m1: np.ndarray
    ad_0: np.ndarray
    ad_p1: np.ndarray
    Z: np.ndarray

    @staticmethod
    def from_g0(
        alg: GradedLieAlgebra, A: np.ndarray, Z: np.ndarray | None = None
    ) -> "FrameChange":
        """exp(ad A) per graded piece for A in g_0 coordinates, times exp(Z)."""
        A = np.asarray(A, dtype=float).reshape(-1)
        n, n0, n1 = alg.dims
        if A.shape != (n0,):
            raise ValueError(f"A must be a g_0 coordinate vector of length {n0}")
        Z = np.zeros(n1) if Z is None else np.asarray(Z, dtype=float).reshape(-1)
        if Z.shape != (n1,):
            raise ValueError(f"Z must be a g_1 coordinate vector of length {n1}")
        mats = []
        for grade in (-1, 0, 1):
            act = alg.block(0, grade)
            ad_A = np.einsum("c,cij->ji", A, act)
            mats.append(_expm(ad_A))
        return FrameChange(mats[0], mats[1], mats[2], Z)


def automorphism_residual(alg: GradedLieAlgebra, fc: FrameChange) -> float:
    """Max violation of Ad(b0)[x, y] = [Ad(b0) x, Ad(b0) y] over the algebra,
    block by block: (B_x^T (x) B_y^T) C_xy = C_xy B_{x+y}^T on C_xy = alg.block(x, y)."""
    B = {-1: fc.ad_m1, 0: fc.ad_0, 1: fc.ad_p1}
    res = []
    for gx, gy in [(x, y) for x in B for y in B if abs(x + y) <= 1]:
        C = alg.block(gx, gy)
        lhs = np.tensordot(B[gx], np.tensordot(B[gy], C, (0, 1)), (0, 1))
        res.append(np.abs(lhs - C @ B[gx + gy].T).max())
    return float(np.max(res))


def group_action_one_cochain(
    alg: GradedLieAlgebra, fc: FrameChange, psi: OneCochain
) -> OneCochain:
    """(b0 . psi)(X) = b0(psi(b0^{-1} X)), valued in g_0 or g_1."""
    _check_one(alg, psi)
    Binv = np.linalg.inv(fc.ad_m1)
    Bval = fc.ad_0 if psi.grade == 0 else fc.ad_p1
    data = np.einsum("va,vw,uw->au", Binv, psi.data, Bval)
    return OneCochain(psi.grade, data)


def group_action_two_cochain(
    alg: GradedLieAlgebra, fc: FrameChange, t: TwoCochain
) -> TwoCochain:
    """(b0 . t)(X, Y) = b0(t(b0^{-1} X, b0^{-1} Y))."""
    _check_two(alg, t)
    Binv = np.linalg.inv(fc.ad_m1)
    Bval = fc.ad_m1 if t.grade == -1 else fc.ad_0
    data = np.einsum("ua,vb,uvw,kw->abk", Binv, Binv, t.data, Bval, optimize=True)
    return TwoCochain(t.grade, data)


def z_drop_residual(alg: GradedLieAlgebra) -> float:
    """Max of |[[Z, X], Y] - [[Z, Y], X]| over basis Z in g_1, X, Y in g_{-1}.

    Zero by the Jacobi identity because g_{-1} is abelian; this is the
    algebraic reason the exp(g_1) factor of the structure group acts
    trivially on torsion.  The difference is d of the one-cochain [Z, .]: the
    product d ad(g_1) that :func:`spencer.cohomology_dim` needs closed for H11.
    """
    return float(np.abs(_Complex(alg).d_ad().vals).max(initial=0.0))


def torsion_equivariance(alg: GradedLieAlgebra, t: TwoCochain, fc: FrameChange) -> TwoCochain:
    """Torsion of a frame moved by b = b0 exp(Z): the b0-action on t.

    The grade-1 factor exp(Z) drops out; the function verifies the bracket
    cancellation exactly, as :func:`z_drop_residual` == 0.0, and raises if
    the algebra violates it (it cannot, for a Jacobi-exact structure tensor).
    """
    _check_two(alg, t, -1, "t")
    drop = z_drop_residual(alg)
    if drop != 0.0:
        raise RuntimeError(
            f"exp(g_1) failed to act trivially on torsion (residual {drop:.3e}); "
            "the structure tensor violates the Jacobi identity"
        )
    return group_action_two_cochain(alg, fc, t)


def model_second_torsion(
    alg: GradedLieAlgebra,
    torsion: TwoCochain | None = None,
    curv0: TwoCochain | None = None,
) -> np.ndarray:
    """Assemble a valid second-level torsion over (g_{-1} + g_0) pairs.

    Off the g_{-1} pairs the values are forced to minus the projected
    bracket; on the g_{-1} pairs the free data consists of a grade -1 part
    (``torsion``) and a g_0-valued part (``curv0``).  Returns the dense
    (n + n0, n + n0, n + n0) coefficient array.
    """
    n, n0, _ = alg.dims
    low = slice(0, n + n0)
    full = np.zeros((n + n0,) * 3)
    i, j, k, v = alg.nonzeros(low, low, low)
    full[i, j, k] = -v
    if torsion is not None:
        _check_two(alg, torsion, -1, "torsion")
        full[:n, :n, :n] += torsion.data
    if curv0 is not None:
        _check_two(alg, curv0, 0, "curv0")
        full[:n, :n, n:] += curv0.data
    return full


def second_torsion_reduction(alg: GradedLieAlgebra, full: np.ndarray) -> tuple[TwoCochain, dict]:
    """Reduce a second-level torsion to its free g_0-valued component.

    ``full`` holds the torsion values on basis pairs of g_{-1} + g_0 with
    values in g_{-1} + g_0.  A valid second-level torsion satisfies

        full(u, v) = full(u_-, v_-) - pr([u, v])

    with u_- the g_{-1}-component of u and pr the projection onto
    g_{-1} + g_0, so every value involving a g_0 argument is determined by
    the bracket, and the only free data sits on the g_{-1} pairs.  The
    g_0-valued block of that free data is returned as a grade-0 two-cochain
    together with a report of the identity's residual.

    A zero map is accepted as a degenerate input: the defect then equals
    the projected bracket itself and is reported without raising.

    Raises:
        ValueError: the input has a non-finite entry, or a nonzero input
            violates the identity beyond ``SECOND_TORSION_TOL``.
    """
    n, n0, _ = alg.dims
    N2 = n + n0
    full = np.asarray(full, dtype=float)
    if full.shape != (N2, N2, N2):
        raise ValueError(f"second-level torsion must have shape {(N2, N2, N2)}")
    if not np.isfinite(full).all():
        raise ValueError("second-level torsion must be finite")

    def defect_of(si: slice, sj: slice) -> float:
        """Max |full - forced| on full[si, sj]; the forced values -C are C's nonzeros negated."""
        diff = full[si, sj].copy()
        i, j, k, v = alg.nonzeros(si, sj, slice(0, N2))
        diff[i, j, k] += v
        return float(np.abs(diff, out=diff).max())

    # Only pairs with at least one g_0 argument are constrained.
    defect = max(defect_of(slice(n, N2), slice(0, N2)), defect_of(slice(0, n), slice(n, N2)))
    alternation = full + full.transpose(1, 0, 2)
    alternation = float(np.abs(alternation, out=alternation).max())
    top = max(float(full.max()), -float(full.min()))
    zero_input = top == 0.0
    scale = max(1.0, top)
    bound = SECOND_TORSION_TOL * scale
    consistent = defect <= bound and alternation <= bound
    report = {
        "defect": defect,
        "alternation": alternation,
        "scale": scale,
        "zero_input": zero_input,
        "consistent": bool(consistent),
    }
    if not consistent and not zero_input:
        raise ValueError(
            f"input is not a valid second-level torsion (defect {defect:.3e}, "
            f"alternation residual {alternation:.3e})"
        )
    return TwoCochain(0, full[:n, :n, n:].copy()), report
