"""Deterministic sample generators and brute-force oracles.

Shared by the test suite and the CLI ``verify`` subcommand.  Every sample
stream is a pure function of a 64-bit seed via ``numpy.random.default_rng``,
and symmetry-class membership is enforced by explicit projection after
sampling, so membership is exact regardless of generator quality.

Symmetry flags understood by :func:`random_curvature`:

* ``"riemann-symmetric"`` (conformal and projective only): a raw curvature
  tensor with the symmetries of a torsion-free connection, embedded as a
  grade-0 two-cochain;
* ``"harmonic"``: grade -1 and grade-0 two-cochains in the kernel of the
  codifferential;
* ``"deformation-image"``: a grade-0 two-cochain of the form
  delta kappa0(Gamma) for a random deformation tensor;
* ``"arbitrary-alternating"``: unconstrained alternating two-cochains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graded_algebra import GradedLieAlgebra, _is_int, _pairs, build_algebra, rank_cutoff
from .normalization import (
    CurvatureData,
    _pair_coefficients,
    curvature_from_riemann,
    deformation_delta_kappa0,
    ricci_from_riemann,
    trace_kappa0,
)
# dstar_matrix is unused here; perfbench's tracer test patches and restores testkit.dstar_matrix
from .spencer import OneCochain, TwoCochain, _hodge_parts, _value_dim, dstar_matrix  # noqa: F401

SYMMETRY_FLAGS = (
    "riemann-symmetric",
    "harmonic",
    "deformation-image",
    "arbitrary-alternating",
)


@dataclass
class SampleSpec:
    """A reproducible sample request: (kind, params, seed) fixes the stream."""

    kind: str
    params: dict
    seed: int
    count: int = 1
    symmetry: str = "arbitrary-alternating"

    def __post_init__(self) -> None:
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.symmetry not in SYMMETRY_FLAGS:
            raise ValueError(
                f"unknown symmetry flag {self.symmetry!r}; expected one of {SYMMETRY_FLAGS}"
            )
        if not _is_int(self.count) or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")


# ---------------------------------------------------------------------------
# symmetry projections
# ---------------------------------------------------------------------------


def riemann_projection(T: np.ndarray, kind: str) -> np.ndarray:
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
    D, P, S = _hodge_parts(alg, grade)

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


# ---------------------------------------------------------------------------
# sample streams
# ---------------------------------------------------------------------------


def random_curvature(spec: SampleSpec) -> list[CurvatureData]:
    """Generate ``spec.count`` curvature samples in the requested class."""
    alg = build_algebra(spec.kind, **spec.params)
    rng = np.random.default_rng(np.uint64(spec.seed))
    n, n0, _ = alg.dims
    out: list[CurvatureData] = []
    if spec.symmetry == "riemann-symmetric" and alg.kind not in ("conformal", "projective"):
        raise ValueError(
            f"riemann-symmetric samples exist only for the raw-curvature kinds, not {alg.kind!r}"
        )
    hm1 = h0 = None
    if spec.symmetry == "harmonic":
        hm1 = harmonic_sampler(alg, -1)
        h0 = harmonic_sampler(alg, 0)
    for _ in range(spec.count):
        if spec.symmetry == "riemann-symmetric":
            R = riemann_projection(rng.uniform(-1.0, 1.0, (n, n, n, n)), alg.kind)
            ric = ricci_from_riemann(R)
            out.append(
                CurvatureData(
                    alg.kind,
                    dict(alg.params),
                    kappa0=curvature_from_riemann(alg, R),
                    riemann=R,
                    ricci=ric,
                    scalar=float(np.trace(ric)),
                    torsion_free=True,
                )
            )
        elif spec.symmetry == "harmonic":
            km1 = hm1(rng)
            k0 = h0(rng)
            out.append(CurvatureData(alg.kind, dict(alg.params), kappa_m1=km1, kappa0=k0))
        elif spec.symmetry == "deformation-image":
            gamma = OneCochain(1, rng.uniform(-1.0, 1.0, (n, alg.dims[2])))
            out.append(
                CurvatureData(
                    alg.kind,
                    dict(alg.params),
                    kappa0=deformation_delta_kappa0(alg, gamma),
                )
            )
        else:
            km1 = TwoCochain(-1, rng.uniform(-1.0, 1.0, (n, n, n)))
            k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
            out.append(CurvatureData(alg.kind, dict(alg.params), kappa_m1=km1, kappa0=k0))
    return out


def brute_force_trace_map(alg: GradedLieAlgebra) -> np.ndarray:
    """Dense matrix of Gamma -> Tr(delta kappa0(Gamma)), column by basis column.

    Each column applies :func:`deformation_delta_kappa0` and then
    :func:`trace_kappa0` to one basis cochain E_cu, so it shares no code
    with the pairing-scaled d* d assembly in
    :func:`ahsnormal.normalization.trace_map_matrix` and serves as its
    independent oracle.
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
