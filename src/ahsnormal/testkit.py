"""Deterministic sample generators.

Shared by the test suite and the CLI ``verify`` subcommand.  Every sample is
a pure function of the ``numpy.random.Generator`` passed in, and
symmetry-class membership is enforced by explicit projection after
sampling, so membership is exact regardless of generator quality.
"""

from __future__ import annotations

import numpy as np

from .graded_algebra import Blocks, GradedLieAlgebra, Triplets, _pairs
from .normalization import _pair_coefficients, deformation_delta_kappa0
# dstar_matrix is unused here; perfbench's tracer test patches and restores testkit.dstar_matrix
from .spencer import (  # noqa: F401
    OneCochain, TwoCochain, _Complex, _pair_cols, _value_dim, dstar_matrix,
)


def _block_trace_rows(alg: GradedLieAlgebra, grade: int) -> Triplets:
    """Matrix sending a vectorized (n, n, nv) cochain to the gl(q)-block trace
    of its value at each argument pair a < b (grassmannian grade 0 only)."""
    if grade != 0 or "D" not in alg.g0_blocks:
        raise ValueError("block_trace_free applies to grassmannian grade-0 cochains")
    n = alg.dims[0]
    nv = _value_dim(alg, grade)
    tr = np.einsum("caa->c", alg.g0_blocks["D"])
    a, b = np.triu_indices(n, 1)
    t, c = np.nonzero(np.broadcast_to(tr != 0, (a.size, nv)))
    return Triplets(t, (a[t] * n + b[t]) * nv + c, tr[c], (a.size, n * n * nv))


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
    cx = _Complex(alg)
    D, P, S = cx.d(grade + 1), cx.dstar_d_pinv(grade)[0], cx.dstar(grade)

    def harm(vec: np.ndarray) -> np.ndarray:
        return vec - D @ (P @ (S @ vec))

    if block_trace_free:
        # G = R - Y S, Y = R D pinv(d* d), is the block trace on the harmonic
        # subspace; with A the alternation the correction pinv(G A) R h is
        # A G^T pinv(K) R h for the Gram K = G A G^T, split by weight.  At
        # (p, q) = (1, 2) the map is rounding noise and K is exactly zero.
        R = _block_trace_rows(alg, grade)
        Y = (R @ D).dense() @ P
        Rp, Sp = _pair_cols(R, n), _pair_cols(S, n)
        YSR = Y @ (Sp @ Rp.T)
        K = 2.0 * ((Rp @ Rp.T).dense() - YSR - YSR.T + (Y @ (Sp @ Sp.T)) @ Y.T)
        Kp = Blocks.split(Triplets(*np.nonzero(K), K[K != 0], K.shape)).pinv()[0]

    def draw(rng: np.random.Generator) -> TwoCochain:
        t = rng.uniform(-1.0, 1.0, (n, n, nv))
        t = 0.5 * (t - t.transpose(1, 0, 2))
        h = harm(t.reshape(-1))
        if block_trace_free:
            z = Kp @ (R @ h)
            c = (R.T @ z - S.T @ (Y.T @ z)).reshape(n, n, nv)
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
