"""Deterministic sample generators.

Shared by the test suite and the CLI ``verify`` subcommand.  Every sample is
a pure function of the ``numpy.random.Generator`` passed in, and
symmetry-class membership is enforced by explicit projection after
sampling, so membership is exact regardless of generator quality.
"""

from __future__ import annotations

import numpy as np

from .graded_algebra import GradedLieAlgebra, _pairs, rank_cutoff
from .normalization import _pair_coefficients, deformation_delta_kappa0
# dstar_matrix is unused here; perfbench's tracer test patches and restores testkit.dstar_matrix
from .spencer import OneCochain, TwoCochain, _complex, _value_dim, dstar_matrix  # noqa: F401


def _block_trace_rows(alg: GradedLieAlgebra, grade: int) -> np.ndarray:
    """Matrix sending a vectorized (n, n, nv) cochain to the gl(q)-block trace
    of its value at each argument pair (grassmannian grade 0 only)."""
    if grade != 0 or "D" not in alg.g0_blocks:
        raise ValueError("block_trace_free applies to grassmannian grade-0 cochains")
    n = alg.dims[0]
    nv = _value_dim(alg, grade)
    tr = np.einsum("caa->c", alg.g0_blocks["D"])
    R = np.zeros((n * n, n * n, nv))
    R[np.arange(n * n), np.arange(n * n)] = tr
    return R.reshape(n * n, -1)


def harmonic_sampler(alg, grade: int, block_trace_free: bool = False):
    """Build a draw function for random harmonic two-cochains at ``grade``.

    Works by projection rather than by a nullspace basis, so it scales to
    the largest grid algebras: a random alternating cochain t is split as
    t = d psi + h along the complementarity decomposition, and h is the
    sample.  With ``block_trace_free`` the component of h carrying gl-block
    trace data is removed as well (staying inside the harmonic subspace).
    The returned callable maps an ``np.random.Generator`` to a TwoCochain.
    """
    n = alg.dims[0]
    nv = _value_dim(alg, grade)
    cx = _complex(alg)
    D, P, S = cx.d(grade + 1), cx.dstar_d_pinv(grade)[0], cx.dstar(grade)

    def harm(vec: np.ndarray) -> np.ndarray:
        return vec - D @ (P @ (S @ vec))

    def swap_cols(M: np.ndarray) -> np.ndarray:
        return M.reshape(M.shape[0], n, n, nv).transpose(0, 2, 1, 3).reshape(M.shape)

    Gp = R = None
    if block_trace_free:
        R = _block_trace_rows(alg, grade)
        # block trace as a map on the harmonic subspace, restricted to
        # alternating inputs; its pseudoinverse yields the correction that
        # cancels the block-trace data without leaving the subspace.  Where
        # the map is rounding noise (p = 1) the correction is exactly zero.
        G = R - ((R @ D) @ P) @ S
        U, s, Vt = np.linalg.svd(0.5 * (G - swap_cols(G)), full_matrices=False)
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > rank_cutoff(s.max(initial=0.0)))
        Gp = Vt.T @ (inv[:, None] * U.T)

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


def random_gamma(alg: GradedLieAlgebra, rng: np.random.Generator) -> OneCochain:
    """Random deformation tensor in the kind's closed-form validity class.

    conformal: symmetric matrix; grassmannian and projective: arbitrary;
    lagrangian and spinorial: coefficients of an all-pairs tensor that is
    pair-exchange symmetric (and symmetric resp. antisymmetric within each
    pair), the class on which the trace inversion is exact.
    """
    n, _, n1 = alg.dims
    if alg.kind == "conformal":
        A = rng.uniform(-1.0, 1.0, (n, n))
        return OneCochain(1, 0.5 * (A + A.T))
    if alg.kind in ("grassmannian", "projective"):
        return OneCochain(1, rng.uniform(-1.0, 1.0, (n, n1)))
    m = alg.params["m"]
    eps = 1.0 if alg.kind == "lagrangian" else -1.0
    F = rng.uniform(-1.0, 1.0, (m, m, m, m))
    F = 0.25 * (
        F + eps * F.transpose(1, 0, 2, 3) + eps * F.transpose(0, 1, 3, 2) + F.transpose(1, 0, 3, 2)
    )
    F = 0.5 * (F + F.transpose(2, 3, 0, 1))
    return OneCochain(1, _pair_coefficients(F, _pairs(m, eps)))


def round_trip_sample(
    alg: GradedLieAlgebra,
    rng: np.random.Generator,
    sampler=None,
) -> tuple[OneCochain, TwoCochain]:
    """A (Gamma_true, kappa0) pair with kappa0 = delta kappa0(Gamma_true) + h.

    The harmonic pollution h is invisible to the trace data (its trace
    vanishes by the codifferential identity), so both the closed form and
    the oracle must recover Gamma_true.  For the grassmannian kind h is
    additionally block-trace-free, because that closed form reads the
    gl-block traces as well.  Pass a precomputed :func:`harmonic_sampler`
    as ``sampler`` to amortize the projector setup over many samples.
    """
    gamma = random_gamma(alg, rng)
    if sampler is None:
        sampler = harmonic_sampler(alg, 0, block_trace_free=alg.kind == "grassmannian")
    h = sampler(rng)
    kappa0 = TwoCochain(0, deformation_delta_kappa0(alg, gamma).data + h.data)
    return gamma, kappa0
