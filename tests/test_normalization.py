"""Trace operators, closed-form deformation tensors, and the solve oracle."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    GRID,
    SMALL,
    algebra,
    grid_id,
    ref_brute_force_trace_map,
    ref_dense_C,
    ref_ricci_from_riemann,
    ref_riemann_projection,
    ref_spencer_d,
    ref_trace_g0,
    with_dense_C,
)

from ahsnormal import build_algebra, graded_algebra
from ahsnormal.graded_algebra import _pairs
from ahsnormal.normalization import (
    NonUniquenessError,
    _gamma_conformal,
    _gamma_pair,
    _gamma_projective,
    block_trace_g0,
    deformation_delta_kappa0,
    curvature_from_riemann,
    fiber_constancy_check,
    gamma_closed_form,
    oracle_gamma,
    torsion_is_harmonic,
    trace_kappa0,
    trace_kappa0_via_dstar,
    trace_map_matrix,
    uniqueness_certificate,
)
from ahsnormal.prolongation_model import (
    FrameChange,
    model_second_torsion,
    torsion_equivariance,
    z_drop_residual,
)
from ahsnormal.spencer import (
    Blocks,
    OneCochain,
    TwoCochain,
    cohomology_dim,
    complementarity_check,
    spencer_d,
)
from ahsnormal.testkit import (
    harmonic_sampler,
    random_gamma,
    round_trip_sample,
)


def random_kappa0(alg, rng):
    n, n0, _ = alg.dims
    return TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))


def constant_curvature(n):
    eye = np.eye(n)
    return np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)


# ---------------------------------------------------------------------------
# trace operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_trace_dual_route(kind, params):
    # the Ricci-type trace and the pairing with the codifferential are
    # independent code paths computing the same bilinear data
    alg = algebra(kind, **params)
    rng = np.random.default_rng(401)
    for _ in range(100):
        k0 = random_kappa0(alg, rng)
        direct = trace_kappa0(alg, k0)
        via = trace_kappa0_via_dstar(alg, k0)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(direct - via).max() <= 1e-12 * scale


def cochain(alg, cls, grade, value=0.0):
    """A constant one- or two-cochain of the given grade, shaped for it."""
    shape = (alg.dims[0],) * (1 if cls is OneCochain else 2)
    return cls(grade, np.full(shape + (alg.dims[grade + 1],), value))


# (function, argument, cochain type, its required grade, call with that argument)
GRADE_REFUSALS = [
    ("trace_kappa0", "kappa0", TwoCochain, 0, trace_kappa0),
    ("trace_kappa0_via_dstar", "kappa0", TwoCochain, 0, trace_kappa0_via_dstar),
    ("block_trace_g0", "phi", TwoCochain, 0, block_trace_g0),
    ("deformation_delta_kappa0", "gamma", OneCochain, 1, deformation_delta_kappa0),
    ("torsion_is_harmonic", "torsion", TwoCochain, -1, torsion_is_harmonic),
    ("fiber_constancy_check", "kappa0", TwoCochain, 0, lambda alg, c: fiber_constancy_check(
        alg, c, cochain(alg, TwoCochain, -1), np.zeros(alg.dims[2]))),
    ("fiber_constancy_check", "kappa_m1", TwoCochain, -1, lambda alg, c: fiber_constancy_check(
        alg, cochain(alg, TwoCochain, 0), c, np.zeros(alg.dims[2]))),
    ("torsion_equivariance", "t", TwoCochain, -1, lambda alg, c: torsion_equivariance(
        alg, c, FrameChange.from_g0(alg, np.zeros(alg.dims[1])))),
    ("model_second_torsion", "torsion", TwoCochain, -1,
     lambda alg, c: model_second_torsion(alg, torsion=c)),
    ("model_second_torsion", "curv0", TwoCochain, 0,
     lambda alg, c: model_second_torsion(alg, curv0=c)),
]


@pytest.mark.parametrize(
    "kind,params", [("grassmannian", {"p": 1, "q": 1}), ("conformal", {"m": 3})], ids=grid_id
)
@pytest.mark.parametrize(
    "function,arg,cls,grade,call", GRADE_REFUSALS, ids=[f"{f}-{a}" for f, a, *_ in GRADE_REFUSALS]
)
def test_fixed_grade_refusals(kind, params, function, arg, cls, grade, call):
    # the argument has the other grade and the shape of that grade; at sl(2)
    # n = n0 = n1 = 1, so that is also the shape of the required grade and
    # only the grade check can refuse it
    alg = algebra(kind, **params)
    other = {-1: 0, 0: -1} if cls is TwoCochain else {0: 1, 1: 0}
    with pytest.raises(ValueError, match=f"^{arg} must be a grade {grade} "):
        call(alg, cochain(alg, cls, other[grade], 1.0))


def test_trace_of_zero():
    alg = algebra("lagrangian", m=3)
    n, n0, _ = alg.dims
    z = TwoCochain(0, np.zeros((n, n, n0)))
    assert np.abs(trace_kappa0(alg, z)).max() == 0.0
    assert np.abs(ref_trace_g0(alg, z)).max() == 0.0


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_delta_kappa0_equals_spencer_d(kind, params):
    # the curvature shift of a deformation is + d Gamma (sign included),
    # checked against the einsum reference of d, which shares no code with
    # the triplets of d_triplets; the dyadic structure constants make it exact
    alg = algebra(kind, **params)
    n, n0, n1 = alg.dims
    rng = np.random.default_rng(402)
    for _ in range(3):
        gamma = OneCochain(1, rng.uniform(-1.0, 1.0, (n, n1)))
        ref = ref_spencer_d(alg, gamma)
        got = deformation_delta_kappa0(alg, gamma).data
        assert got.tobytes() == ref.data.tobytes()


def test_grassmannian_block_traces_of_shift():
    # for a deformation with flat matrix G the two gl-block traces of the
    # curvature shift carry exactly the antisymmetric part of G, with
    # opposite signs (the values are trace-free overall)
    rng = np.random.default_rng(403)
    for p, q in [(2, 2), (2, 3), (3, 3)]:
        alg = algebra("grassmannian", p=p, q=q)
        n = alg.dims[0]
        G = rng.uniform(-1.0, 1.0, (n, n))
        dk = deformation_delta_kappa0(alg, OneCochain(1, G))
        anti = G - G.T
        np.testing.assert_allclose(block_trace_g0(alg, dk, "A"), anti, atol=1e-13)
        np.testing.assert_allclose(block_trace_g0(alg, dk, "D"), -anti, atol=1e-13)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_g0_trace_vanishes_on_symmetric_deformations(kind, params):
    # slot-exchange symmetric deformations produce trace-free shifts in g_0
    alg = algebra(kind, **params)
    rng = np.random.default_rng(404)
    if kind in ("grassmannian", "projective"):
        n = alg.dims[0]
        A = rng.uniform(-1.0, 1.0, (n, n))
        gamma = OneCochain(1, 0.5 * (A + A.T))
    else:
        gamma = random_gamma(alg, rng)
    dk = deformation_delta_kappa0(alg, gamma)
    assert np.abs(ref_trace_g0(alg, dk)).max() == 0.0


def test_torsion_is_harmonic_classifier():
    alg = algebra("grassmannian", p=2, q=3)
    rng = np.random.default_rng(405)
    n = alg.dims[0]
    zero = TwoCochain(-1, np.zeros((n, n, n)))
    assert torsion_is_harmonic(alg, zero)["passed"]
    h = harmonic_sampler(alg, -1)(rng)
    assert torsion_is_harmonic(alg, h)["passed"]
    psi = OneCochain(0, rng.uniform(-1.0, 1.0, (n, alg.dims[1])))
    exact = spencer_d(alg, psi)
    assert not torsion_is_harmonic(alg, exact)["passed"]


# ---------------------------------------------------------------------------
# closed forms: spot values and linearity
# ---------------------------------------------------------------------------


def test_conformal_constant_curvature_spot():
    for m in (3, 4, 5):
        R = constant_curvature(m)
        ric = ref_ricci_from_riemann(R)
        np.testing.assert_allclose(ric, (m - 1) * np.eye(m), atol=1e-13)
        out = _gamma_conformal(m, ric)
        np.testing.assert_allclose(out, -0.5 * np.eye(m), atol=1e-13)
        # the linear-solve oracle agrees on the embedded curvature
        alg = algebra("conformal", m=m)
        orc = oracle_gamma(alg, curvature_from_riemann(alg, R))
        np.testing.assert_allclose(orc.data, -0.5 * np.eye(m), atol=1e-12)


def test_projective_constant_curvature_spot():
    for q in (2, 3, 4):
        R = constant_curvature(q)
        out = _gamma_projective(q, ref_ricci_from_riemann(R))
        np.testing.assert_allclose(out, np.eye(q), atol=1e-13)
        alg = algebra("projective", q=q)
        orc = oracle_gamma(alg, curvature_from_riemann(alg, R))
        np.testing.assert_allclose(orc.data, np.eye(q), atol=1e-12)


def test_closed_forms_at_zero():
    assert np.abs(_gamma_conformal(4, np.zeros((4, 4)))).max() == 0.0
    assert np.abs(_gamma_projective(3, np.zeros((3, 3)))).max() == 0.0
    n = 6  # lagrangian m = 3 has 6 symmetric pairs
    assert np.abs(_gamma_pair(3, np.zeros((n, n)), 1)).max() == 0.0
    assert np.abs(_gamma_pair(4, np.zeros((6, 6)), -1)).max() == 0.0


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_closed_form_linearity(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(406)
    k1 = random_kappa0(alg, rng)
    k2 = random_kappa0(alg, rng)
    mix = TwoCochain(0, 2.0 * k1.data - 3.0 * k2.data)
    g1 = gamma_closed_form(alg, k1).data
    g2 = gamma_closed_form(alg, k2).data
    gmix = gamma_closed_form(alg, mix).data
    np.testing.assert_allclose(gmix, 2.0 * g1 - 3.0 * g2, atol=1e-11)


def test_closed_form_raises_on_sl2():
    # the one closed-form guard an algebra can reach: p + q = 2
    alg = algebra("grassmannian", p=1, q=1)
    with pytest.raises(NonUniquenessError) as exc:
        gamma_closed_form(alg, TwoCochain(0, np.zeros((1, 1, 1))))
    assert exc.value.kernel_dim == 1


# ---------------------------------------------------------------------------
# round trips: closed form and oracle against a known deformation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_round_trip_with_harmonic_pollution(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(407)
    sampler = harmonic_sampler(alg, 0, block_trace_free=(kind == "grassmannian"))
    for _ in range(10):
        gamma, k0 = round_trip_sample(alg, rng, sampler=sampler)
        scale = max(1.0, float(np.abs(gamma.data).max()))
        cf = gamma_closed_form(alg, k0)
        orc = oracle_gamma(alg, k0)
        assert np.abs(cf.data - gamma.data).max() <= 1e-11 * scale
        assert np.abs(orc.data - gamma.data).max() <= 1e-11 * scale


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_normalized_curvature_is_trace_free(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(408)
    sampler = harmonic_sampler(alg, 0, block_trace_free=(kind == "grassmannian"))
    _, k0 = round_trip_sample(alg, rng, sampler=sampler)
    cf = gamma_closed_form(alg, k0)
    kbar = TwoCochain(0, k0.data - deformation_delta_kappa0(alg, cf).data)
    assert np.abs(trace_kappa0(alg, kbar)).max() <= 1e-11


# ---------------------------------------------------------------------------
# substitution identities with the honest denominator signs
# ---------------------------------------------------------------------------


def expand_pairs(T, m, eps):
    """T on the pair coordinates _pairs(m, eps), as T4[a, b, c, d] with
    T4[b, a, c, d] = T4[a, b, d, c] = eps * T4[a, b, c, d]."""
    pairs = _pairs(m, eps)
    T4 = np.zeros((m, m, m, m))
    for s, (a, b) in enumerate(pairs):
        for t, (c, d) in enumerate(pairs):
            for (aa, bb), s1 in (((a, b), 1), ((b, a), eps)):
                for (cc, dd), s2 in (((c, d), 1), ((d, c), eps)):
                    T4[aa, bb, cc, dd] = s1 * s2 * T[s, t]
    return T4


def lagrangian_gamma_from_coeffs(m, F):
    pairs = [(k, l) for k in range(m) for l in range(k, m)]
    G = np.zeros((len(pairs), len(pairs)))
    for t, (i, j) in enumerate(pairs):
        for u, (s, tt) in enumerate(pairs):
            G[t, u] = (1.0 if s == tt else 2.0) * F[s, tt, i, j]
    return G


def spinorial_gamma_from_coeffs(m, F):
    pairs = [(k, l) for k in range(m) for l in range(m) if k < l]
    G = np.zeros((len(pairs), len(pairs)))
    for t, (i, j) in enumerate(pairs):
        for u, (s, tt) in enumerate(pairs):
            G[t, u] = 2.0 * F[s, tt, i, j]
    return G


@pytest.mark.parametrize("m", [3, 4])
def test_substitution_identity_lagrangian(m):
    # for pair-exchange symmetric deformations F the trace of the curvature
    # shift satisfies m*T[klpq] + T[qlpk] + T[qkpl] = (m(m+1) - 2) * F[pqkl]
    alg = algebra("lagrangian", m=m)
    rng = np.random.default_rng(409)
    F = rng.uniform(-1.0, 1.0, (m, m, m, m))
    F = 0.25 * (F + F.transpose(1, 0, 2, 3) + F.transpose(0, 1, 3, 2) + F.transpose(1, 0, 3, 2))
    F = 0.5 * (F + F.transpose(2, 3, 0, 1))
    gamma = OneCochain(1, lagrangian_gamma_from_coeffs(m, F))
    T = trace_kappa0(alg, deformation_delta_kappa0(alg, gamma))
    T4 = expand_pairs(T, m, 1)
    comb = (
        m * np.einsum("klpq->pqkl", T4)
        + np.einsum("qlpk->pqkl", T4)
        + np.einsum("qkpl->pqkl", T4)
    )
    scale = max(1.0, float(np.abs(F).max()))
    assert np.abs(comb - (m * (m + 1) - 2.0) * F).max() <= 1e-12 * scale
    # the normalized reading: substituting Gamma into kbar = k - delta(k)
    # flips the overall sign, giving the (2 - m(m+1)) convention
    Tbar = trace_kappa0(alg, TwoCochain(0, -deformation_delta_kappa0(alg, gamma).data))
    T4b = expand_pairs(Tbar, m, 1)
    comb_bar = (
        m * np.einsum("klpq->pqkl", T4b)
        + np.einsum("qlpk->pqkl", T4b)
        + np.einsum("qkpl->pqkl", T4b)
    )
    assert np.abs(comb_bar - (2.0 - m * (m + 1)) * F).max() <= 1e-12 * scale


@pytest.mark.parametrize("m", [3, 4])
def test_substitution_identity_spinorial(m):
    # the exterior-square analogue carries the opposite overall sign:
    # m*T[klpq] + T[qlpk] - T[qkpl] = (2 - m(m-1)) * F[pqkl]
    alg = algebra("spinorial", m=m)
    rng = np.random.default_rng(410)
    F = rng.uniform(-1.0, 1.0, (m, m, m, m))
    F = 0.25 * (F - F.transpose(1, 0, 2, 3) - F.transpose(0, 1, 3, 2) + F.transpose(1, 0, 3, 2))
    F = 0.5 * (F + F.transpose(2, 3, 0, 1))
    gamma = OneCochain(1, spinorial_gamma_from_coeffs(m, F))
    T = trace_kappa0(alg, deformation_delta_kappa0(alg, gamma))
    T4 = expand_pairs(T, m, -1)
    comb = (
        m * np.einsum("klpq->pqkl", T4)
        + np.einsum("qlpk->pqkl", T4)
        - np.einsum("qkpl->pqkl", T4)
    )
    scale = max(1.0, float(np.abs(F).max()))
    assert np.abs(comb - (2.0 - m * (m - 1)) * F).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# oracle behavior and uniqueness certificates
# ---------------------------------------------------------------------------


def test_oracle_zero_curvature():
    alg = algebra("spinorial", m=4)
    n, n0, _ = alg.dims
    out = oracle_gamma(alg, TwoCochain(0, np.zeros((n, n, n0))))
    assert np.abs(out.data).max() == 0.0


def test_oracle_raises_on_sl2():
    alg = algebra("grassmannian", p=1, q=1)
    k0 = TwoCochain(0, np.zeros((1, 1, 1)))
    with pytest.raises(NonUniquenessError) as exc:
        oracle_gamma(alg, k0)
    assert exc.value.kernel_dim >= 1


def test_oracle_refuses_nan_trace_data():
    # NaN compares false with every bound, so a range check that only asks
    # "residual > bound" would pass it and return an all-NaN Gamma
    alg = algebra("projective", q=3)
    with pytest.raises(ValueError, match="outside the range of the trace map"):
        oracle_gamma(alg, TwoCochain(0, np.full((3, 3, 9), np.nan)))


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_uniqueness_certificate(kind, params):
    alg = algebra(kind, **params)
    cert = uniqueness_certificate(alg)
    # the kernel count from the shared factorization against a rank of its own
    M = trace_map_matrix(alg)
    ref_kernel_dim = M.shape[1] - Blocks.split(M).rank()
    assert cert["kernel_dim"] == ref_kernel_dim
    if kind == "grassmannian" and params == {"p": 1, "q": 1}:
        assert cert["kernel_dim"] == 1
        assert not cert["unique"]
        assert not cert["normalizable"]
    else:
        assert cert["kernel_dim"] == 0
        assert cert["unique"]
        assert cert["normalizable"]


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_trace_map_is_codifferential_of_differential(kind, params):
    # The library assembles the trace map as d* d with row (x, v) scaled by
    # <z_v, x_v>; the column loop applies the curvature shift and the trace
    # to one basis cochain at a time, sharing no code with that assembly.
    # The kernel of the map is ker d* d = ker d on grade-1 one-cochains,
    # whose dimension is H21 (im d and ker d* meet only in 0).
    alg = algebra(kind, **params)
    np.testing.assert_array_equal(trace_map_matrix(alg).dense(), ref_brute_force_trace_map(alg))
    assert uniqueness_certificate(alg)["kernel_dim"] == cohomology_dim(alg, "H21")


# ---------------------------------------------------------------------------
# the factorization cache of the trace map
# ---------------------------------------------------------------------------


def _solve(alg, k0):
    """The oracle's answer as bytes, or the kernel dimension it refuses with."""
    try:
        return oracle_gamma(alg, k0).data.tobytes()
    except NonUniquenessError as err:
        return err.kernel_dim


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_trace_map_cache_changes_no_answer(kind, params, trace_map_builds):
    alg = algebra(kind, **params)
    k0 = random_kappa0(alg, np.random.default_rng(1501))
    _solve(alg, k0)
    warm = _solve(alg, k0)
    warm_kernel = uniqueness_certificate(alg)["kernel_dim"]
    assert len(trace_map_builds) == 1
    alg.parts.clear()
    assert _solve(alg, k0) == warm
    assert len(trace_map_builds) == 2
    if alg.normalizable:
        assert warm_kernel == 0
    else:  # sl(2): the certificate and the refusal count the same kernel
        assert warm == warm_kernel == 1


def _bumped(alg, gx, gy):
    """A copy with the first nonzero of C[g_gx, g_gy] moved by 2^-40."""
    C = ref_dense_C(alg)
    sx, sy, sz = alg.grade_slice(gx), alg.grade_slice(gy), alg.grade_slice(gx + gy)
    x, y, z = np.argwhere(alg.block(gx, gy) != 0.0)[0]
    C[x + sx.start, y + sy.start, z + sz.start] += 2.0**-40
    return with_dense_C(alg, C)


def _spencer_answers(alg):
    """complementarity_check, cohomology_dim (or its refusal), a harmonic
    draw at every grade, and z_drop_residual."""
    def h(level):
        try:
            return cohomology_dim(alg, level)
        except AssertionError as err:  # a broken copy's ad image is not d-closed
            return str(err)

    return ([complementarity_check(alg, grade) for grade in (-1, 0)], [h("H11"), h("H21")],
            [harmonic_sampler(alg, grade)(np.random.default_rng(1503)).data.tobytes()
             for grade in (-1, 0)], z_drop_residual(alg))


def test_a_changed_copy_never_reads_its_source_s_parts(trace_map_builds):
    alg = algebra("grassmannian", p=2, q=3)
    k0 = random_kappa0(alg, np.random.default_rng(1502))
    pairing = alg.pairing.copy()
    pairing[1, 1] += 2.0**-40
    copies = [_bumped(alg, 1, -1), _bumped(alg, 1, 0), _bumped(alg, 0, -1),
              dataclasses.replace(alg, pairing=pairing)]
    _solve(alg, k0)
    intact = _spencer_answers(alg)
    for changed in copies:
        first = _solve(changed, k0)  # alg and the earlier copies keep their parts
        assert trace_map_builds[-1] is changed
        assert first != _solve(alg, k0)
        warm = _spencer_answers(changed)
        assert warm[2] != intact[2]
        changed.parts.clear()
        alg.parts.clear()
        assert _solve(changed, k0) == first
        assert _spencer_answers(changed) == warm
        _solve(alg, k0)
    assert len(trace_map_builds) == 1 + 4 * 3


def test_trace_map_cache_is_bounded(trace_map_builds):
    # the parts live as long as their point's shared algebra; at least the
    # five kinds of a normalize stream fit, so its builds do not depend on
    # the order of its requests
    bound = graded_algebra._shared.cache_parameters()["maxsize"]
    assert bound >= 5
    points = GRID[: bound + 2]
    for kind, params in points:
        uniqueness_certificate(build_algebra(kind, **params))
    assert graded_algebra._shared.cache_info().currsize == bound
    kind, params = points[-1]
    uniqueness_certificate(build_algebra(kind, **params))  # newest kept
    assert len(trace_map_builds) == bound + 2
    kind, params = points[0]
    oldest = build_algebra(kind, **params)
    uniqueness_certificate(oldest)  # oldest evicted first
    assert trace_map_builds[-1] is oldest
    assert graded_algebra._shared.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# fiber constancy
# ---------------------------------------------------------------------------


def test_fiber_constancy_with_harmonic_torsion():
    rng = np.random.default_rng(411)
    for kind, params in [("grassmannian", {"p": 2, "q": 3}), ("lagrangian", {"m": 3})]:
        alg = algebra(kind, **params)
        km1 = harmonic_sampler(alg, -1)(rng)
        assert np.abs(km1.data).max() > 0.0
        k0 = random_kappa0(alg, rng)
        tau = rng.uniform(-1.0, 1.0, alg.dims[2])
        rep = fiber_constancy_check(alg, k0, km1, tau)
        assert rep["passed"]
        assert rep["residual"] <= 1e-10 * rep["scale"]


def test_fiber_constancy_zero_tau():
    alg = algebra("conformal", m=4)
    rng = np.random.default_rng(412)
    n = alg.dims[0]
    km1 = TwoCochain(-1, np.zeros((n, n, n)))
    k0 = random_kappa0(alg, rng)
    rep = fiber_constancy_check(alg, k0, km1, np.zeros(alg.dims[2]))
    assert rep["passed"]
    assert rep["residual"] == 0.0


def test_fiber_constancy_rejects_non_harmonic_torsion():
    alg = algebra("lagrangian", m=3)
    rng = np.random.default_rng(413)
    n = alg.dims[0]
    km1 = TwoCochain(-1, rng.uniform(-1.0, 1.0, (n, n, n)))
    assert not torsion_is_harmonic(alg, km1)["passed"]
    k0 = random_kappa0(alg, rng)
    with pytest.raises(ValueError):
        fiber_constancy_check(alg, k0, km1, rng.uniform(-1.0, 1.0, alg.dims[2]))


@pytest.mark.parametrize(
    "kind,params", [("grassmannian", {"p": 1, "q": 1}), ("conformal", {"m": 3})], ids=grid_id
)
def test_fiber_constancy_rejects_kappa0_of_grade_minus_one(kind, params):
    # at sl(2) n = n0 = n1 = 1, so a grade -1 kappa0 has the shape of a
    # grade 0 one; only its grade tells them apart
    alg = algebra(kind, **params)
    n = alg.dims[0]
    km1 = TwoCochain(-1, np.zeros((n, n, n)))
    with pytest.raises(ValueError, match="kappa0 must be a grade 0"):
        fiber_constancy_check(alg, km1, km1, np.zeros(alg.dims[2]))
    wide = TwoCochain(0, np.zeros((n, n, alg.dims[1] + 1)))
    with pytest.raises(ValueError, match="two-cochain shape"):
        fiber_constancy_check(alg, wide, km1, np.zeros(alg.dims[2]))


# ---------------------------------------------------------------------------
# raw curvature input: consistency of embeddings, traces, and formulas
# ---------------------------------------------------------------------------


def test_conformal_raw_riemann_consistency():
    m = 4
    alg = algebra("conformal", m=m)
    rng = np.random.default_rng(414)
    R = ref_riemann_projection(rng.uniform(-1.0, 1.0, (m, m, m, m)), "conformal")
    ric = ref_ricci_from_riemann(R)
    np.testing.assert_allclose(ric, ric.T, atol=1e-13)
    k0 = curvature_from_riemann(alg, R)
    # the embedded curvature's Ricci-type trace is minus the raw Ricci
    np.testing.assert_allclose(trace_kappa0(alg, k0), -ric, atol=1e-12)
    cf = _gamma_conformal(m, ric)
    orc = oracle_gamma(alg, k0)
    np.testing.assert_allclose(cf, orc.data, atol=1e-11)


def test_projective_raw_riemann_consistency():
    q = 3
    alg = algebra("projective", q=q)
    rng = np.random.default_rng(415)
    R = ref_riemann_projection(rng.uniform(-1.0, 1.0, (q, q, q, q)), "projective")
    ric = ref_ricci_from_riemann(R)
    k0 = curvature_from_riemann(alg, R)
    # the embedded curvature's trace is the transposed raw Ricci
    np.testing.assert_allclose(trace_kappa0(alg, k0), ric.T, atol=1e-12)
    cf = _gamma_projective(q, ric)
    orc = oracle_gamma(alg, k0)
    np.testing.assert_allclose(cf, orc.data, atol=1e-11)


def test_projective_vs_rank_one_grassmannian_correspondence():
    # exploratory cross-check between the two sl(q+1) realizations: the same
    # deformation matrix is recovered by both round trips; the comparison of
    # the recovered tensors is reported, not asserted, because the two bases
    # need not be identified
    q = 2
    proj = algebra("projective", q=q)
    gras = algebra("grassmannian", p=1, q=q)
    rng = np.random.default_rng(416)
    G = rng.uniform(-1.0, 1.0, (q, q))
    out = {}
    for name, alg in (("projective", proj), ("grassmannian", gras)):
        gamma = OneCochain(1, G)
        k0 = deformation_delta_kappa0(alg, gamma)
        rec = gamma_closed_form(alg, k0).data
        assert np.abs(rec - G).max() <= 1e-11
        out[name] = rec
    gap = float(np.abs(out["projective"] - out["grassmannian"]).max())
    print(f"projective vs grassmannian(1,{q}) recovered-deformation gap: {gap:.3e}")


def test_curvature_from_riemann_validation():
    alg = algebra("conformal", m=4)
    with pytest.raises(ValueError):
        curvature_from_riemann(alg, np.zeros((3, 3, 3, 3)))
    with pytest.raises(ValueError):
        curvature_from_riemann(algebra("lagrangian", m=3), np.zeros((6, 6, 6, 6)))
