"""Spencer differential, codifferential, cohomology, and harmonic splitting."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import GRID, SMALL, algebra, grid_id

from ahsnormal.spencer import (
    OneCochain,
    TwoCochain,
    cohomology_dim,
    complementarity_check,
    d_matrix,
    dstar_matrix,
    g0_action_one_cochain,
    g0_action_two_cochain,
    harmonic_decompose,
    spencer_d,
    spencer_dstar,
)


def random_one(alg, grade, rng):
    nv = alg.dims[1] if grade == 0 else alg.dims[2]
    return OneCochain(grade, rng.uniform(-1.0, 1.0, (alg.dims[0], nv)))


def random_two(alg, grade, rng):
    nv = alg.dims[0] if grade == -1 else alg.dims[1]
    return TwoCochain(grade, rng.uniform(-1.0, 1.0, (alg.dims[0], alg.dims[0], nv)))


# ---------------------------------------------------------------------------
# differential basics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_d_of_ad_z_vanishes(kind, params):
    # psi(X) = [Z, X] is d-closed for every Z in g_1: (d psi)(X, Y) =
    # [[Z, X], Y] - [[Z, Y], X] collapses via Jacobi because g_{-1} is abelian
    alg = algebra(kind, **params)
    rng = np.random.default_rng(31)
    Z = rng.uniform(-1.0, 1.0, alg.dims[2])
    psi = OneCochain(0, np.einsum("u,uac->ac", Z, alg.block(1, -1)))
    out = spencer_d(alg, psi)
    assert np.abs(out.data).max() == 0.0


def test_d_against_direct_brackets():
    alg = algebra("lagrangian", m=3)
    rng = np.random.default_rng(5)
    gamma = random_one(alg, 1, rng)
    out = spencer_d(alg, gamma)
    n, n0, n1 = alg.dims
    sl1, sl0 = alg.grade_slice(1), alg.grade_slice(0)
    for a in range(n):
        for b in range(n):
            ga = np.zeros(alg.n_total)
            ga[sl1] = gamma.data[a]
            xb = np.zeros(alg.n_total)
            xb[b] = 1.0
            gb = np.zeros(alg.n_total)
            gb[sl1] = gamma.data[b]
            xa = np.zeros(alg.n_total)
            xa[a] = 1.0
            expected = alg.bracket_full(ga, xb) - alg.bracket_full(gb, xa)
            np.testing.assert_allclose(out.data[a, b], expected[sl0], atol=1e-13)


@pytest.mark.parametrize("grade", [0, 1])
@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_d_matrix_matches_function(kind, params, grade):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(17 + grade)
    psi = random_one(alg, grade, rng)
    M = d_matrix(alg, grade)
    direct = spencer_d(alg, psi).data
    via = (M.reshape(-1, psi.data.size) @ psi.data.reshape(-1)).reshape(direct.shape)
    np.testing.assert_allclose(via, direct, atol=1e-13)


@pytest.mark.parametrize("grade", [-1, 0])
@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_dstar_matrix_matches_function(kind, params, grade):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(19 + grade)
    phi = random_two(alg, grade, rng)
    S = dstar_matrix(alg, grade)
    direct = spencer_dstar(alg, phi).data
    via = (S @ phi.data.reshape(-1)).reshape(direct.shape)
    np.testing.assert_allclose(via, direct, atol=1e-13)


def test_two_cochain_alternates_input():
    alg = algebra("conformal", m=3)
    sym = np.ones((3, 3, 4))
    assert np.abs(TwoCochain(0, sym).data).max() == 0.0


def test_cochain_validation():
    alg = algebra("conformal", m=3)
    with pytest.raises(ValueError):
        OneCochain(2, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        TwoCochain(1, np.zeros((3, 3, 4)))
    with pytest.raises(ValueError):
        spencer_d(alg, OneCochain(1, np.zeros((3, 4))))
    with pytest.raises(ValueError):
        spencer_dstar(alg, TwoCochain(0, np.zeros((3, 3, 3))))


# ---------------------------------------------------------------------------
# complementarity and cohomology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grade", [-1, 0])
@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_complementarity(kind, params, grade):
    rep = complementarity_check(algebra(kind, **params), grade)
    assert rep["complementary"]
    assert rep["intersection_dim"] == 0
    assert rep["dim_image_d"] + rep["dim_kernel_dstar"] == rep["total_dim"]


def test_complementarity_degenerate_case():
    # sl(2) has a one-dimensional g_{-1}: no alternating two-cochains at all,
    # so every rank is taken on an empty matrix
    for grade in (-1, 0):
        assert complementarity_check(algebra("grassmannian", p=1, q=1), grade) == {
            "dim_image_d": 0,
            "dim_kernel_dstar": 0,
            "intersection_dim": 0,
            "total_dim": 0,
            "complementary": True,
        }


EXPECTED_COHOMOLOGY = {
    ("grassmannian", (1, 1)): (0, 1),
    ("grassmannian", (1, 2)): (4, 0),
    ("grassmannian", (1, 3)): (15, 0),
    ("grassmannian", (1, 4)): (36, 0),
    ("projective", (2,)): (4, 0),
    ("projective", (3,)): (15, 0),
    ("projective", (4,)): (36, 0),
    ("spinorial", (3,)): (15, 0),
}


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_cohomology_table(kind, params):
    alg = algebra(kind, **params)
    key = (kind, tuple(params[k] for k in sorted(params)))
    h11, h21 = EXPECTED_COHOMOLOGY.get(key, (0, 0))
    assert cohomology_dim(alg, "H11") == h11
    assert cohomology_dim(alg, "H21") == h21


def test_h11_closed_formula_on_projective():
    # the nonzero degree-one cohomology has dimension q^2 (q+1) / 2 - q
    for q in (2, 3, 4):
        alg = algebra("projective", q=q)
        assert cohomology_dim(alg, "H11") == q * q * (q + 1) // 2 - q


def test_cohomology_level_validation():
    with pytest.raises(ValueError):
        cohomology_dim(algebra("conformal", m=3), "H31")


# ---------------------------------------------------------------------------
# harmonic decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grade", [-1, 0])
@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_harmonic_decompose(kind, params, grade):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(101)
    t = random_two(alg, grade, rng)
    harm, psi = harmonic_decompose(alg, t)
    scale = max(1.0, float(np.abs(t.data).max()))
    recon = harm.data + spencer_d(alg, psi).data
    np.testing.assert_allclose(recon, t.data, atol=1e-11 * scale)
    assert np.abs(spencer_dstar(alg, harm).data).max() <= 1e-11 * scale


def test_harmonic_part_of_exact_cochain_vanishes():
    alg = algebra("conformal", m=4)
    rng = np.random.default_rng(55)
    psi = random_one(alg, 1, rng)
    harm, _ = harmonic_decompose(alg, spencer_d(alg, psi))
    assert np.abs(harm.data).max() <= 1e-11


# ---------------------------------------------------------------------------
# g_0 equivariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_d_equivariance(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(202)
    A = rng.uniform(-1.0, 1.0, alg.dims[1])
    psi = random_one(alg, 1, rng)
    lhs = spencer_d(alg, g0_action_one_cochain(alg, A, psi))
    rhs = g0_action_two_cochain(alg, A, spencer_d(alg, psi))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)


@pytest.mark.parametrize("grade", [-1, 0])
@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_dstar_equivariance(kind, params, grade):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(203)
    A = rng.uniform(-1.0, 1.0, alg.dims[1])
    phi = random_two(alg, grade, rng)
    lhs = spencer_dstar(alg, g0_action_two_cochain(alg, A, phi))
    rhs = g0_action_one_cochain(alg, A, spencer_dstar(alg, phi))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)
