"""Frame changes, torsion transformation, and the second-level reduction."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import GRID, SMALL, algebra, grid_id, ref_harmonic_decompose, z_flips

from ahsnormal.graded_algebra import faithfulness_ranks
from ahsnormal.prolongation_model import (
    FrameChange,
    automorphism_residual,
    flat_structure_function,
    group_action_one_cochain,
    group_action_two_cochain,
    model_second_torsion,
    second_torsion_reduction,
    torsion_change,
    torsion_equivariance,
    z_drop_residual,
)
from ahsnormal.spencer import (
    OneCochain,
    TwoCochain,
    cohomology_dim,
    spencer_d,
    spencer_dstar,
)


def random_torsion(alg, rng):
    n = alg.dims[0]
    return TwoCochain(-1, rng.uniform(-1.0, 1.0, (n, n, n)))


# ---------------------------------------------------------------------------
# connection changes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_torsion_change_endpoints(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(61)
    n, n0, _ = alg.dims
    t = random_torsion(alg, rng)
    psi = OneCochain(0, rng.uniform(-1.0, 1.0, (n, n0)))
    zero_psi = OneCochain(0, np.zeros((n, n0)))
    zero_t = TwoCochain(-1, np.zeros((n, n, n)))
    np.testing.assert_array_equal(torsion_change(alg, t, zero_psi).data, t.data)
    np.testing.assert_array_equal(
        torsion_change(alg, zero_t, psi).data, -spencer_d(alg, psi).data
    )


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_torsion_change_preserves_harmonic_class(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(62)
    n, n0, _ = alg.dims
    t = random_torsion(alg, rng)
    psi = OneCochain(0, rng.uniform(-1.0, 1.0, (n, n0)))
    before, _ = ref_harmonic_decompose(alg, t)
    after, _ = ref_harmonic_decompose(alg, torsion_change(alg, t, psi))
    np.testing.assert_allclose(after.data, before.data, atol=1e-10)


def test_torsion_change_validates_grades():
    alg = algebra("conformal", m=3)
    t = TwoCochain(-1, np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        torsion_change(alg, t, OneCochain(1, np.zeros((3, 3))))


# ---------------------------------------------------------------------------
# structure-group action
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_from_g0_is_automorphism(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(63)
    fc = FrameChange.from_g0(alg, rng.uniform(-0.5, 0.5, alg.dims[1]))
    assert automorphism_residual(alg, fc) <= 1e-10


def test_identity_frame_change_fixes_everything():
    alg = algebra("lagrangian", m=3)
    rng = np.random.default_rng(64)
    fc = FrameChange.identity(alg)
    assert automorphism_residual(alg, fc) == 0.0
    t = random_torsion(alg, rng)
    np.testing.assert_array_equal(group_action_two_cochain(alg, fc, t).data, t.data)
    psi = OneCochain(0, rng.uniform(-1.0, 1.0, (alg.dims[0], alg.dims[1])))
    np.testing.assert_array_equal(group_action_one_cochain(alg, fc, psi).data, psi.data)


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_z_drop_is_exact(kind, params):
    # [[Z, X], Y] = [[Z, Y], X] for Z in g_1 and X, Y in g_{-1}: the
    # reason exp(g_1) cannot move the torsion
    assert z_drop_residual(algebra(kind, **params)) == 0.0


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_torsion_equivariance_z_only(kind, params):
    # a pure exp(Z) frame change leaves the torsion untouched
    alg = algebra(kind, **params)
    rng = np.random.default_rng(65)
    t = random_torsion(alg, rng)
    fc = FrameChange.from_g0(alg, np.zeros(alg.dims[1]), Z=rng.uniform(-1.0, 1.0, alg.dims[2]))
    moved = torsion_equivariance(alg, t, fc)
    np.testing.assert_array_equal(moved.data, t.data)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_torsion_equivariance_commutes_with_dstar(kind, params):
    # the codifferential is equivariant, so moving frames and reducing
    # torsion commute; in particular harmonicity is frame-independent
    alg = algebra(kind, **params)
    rng = np.random.default_rng(66)
    t = random_torsion(alg, rng)
    fc = FrameChange.from_g0(alg, rng.uniform(-0.5, 0.5, alg.dims[1]))
    lhs = spencer_dstar(alg, torsion_equivariance(alg, t, fc))
    rhs = group_action_one_cochain(alg, fc, spencer_dstar(alg, t))
    scale = max(1.0, float(np.abs(lhs.data).max()))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-8 * scale)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_torsion_equivariance_refuses_a_broken_z_drop(kind, params):
    # not every flip breaks [[Z, X], Y] = [[Z, Y], X] (3 of the 15 at
    # projective q = 3 keep it); the first flip that does must stop the
    # frame change
    alg = algebra(kind, **params)
    bad = next(b for b in z_flips(alg) if z_drop_residual(b) > 0.0)
    rng = np.random.default_rng(68)
    fc = FrameChange.from_g0(alg, rng.uniform(-0.5, 0.5, alg.dims[1]))
    with pytest.raises(RuntimeError, match="exp\\(g_1\\)"):
        torsion_equivariance(bad, random_torsion(bad, rng), fc)


def test_frame_change_validation():
    alg = algebra("conformal", m=3)
    with pytest.raises(ValueError):
        FrameChange.from_g0(alg, np.zeros(2))
    with pytest.raises(ValueError):
        FrameChange.from_g0(alg, np.zeros(alg.dims[1]), Z=np.zeros(7))


# ---------------------------------------------------------------------------
# second-level torsion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_second_torsion_round_trip(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(67)
    n, n0, _ = alg.dims
    k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
    t = random_torsion(alg, rng)
    full = model_second_torsion(alg, torsion=t, curv0=k0)
    got, report = second_torsion_reduction(alg, full)
    assert report["consistent"]
    assert report["defect"] == 0.0
    np.testing.assert_array_equal(got.data, k0.data)


def test_second_torsion_zero_input_reported_not_raised():
    alg = algebra("conformal", m=3)
    n, n0, _ = alg.dims
    N2 = n + n0
    got, report = second_torsion_reduction(alg, np.zeros((N2, N2, N2)))
    assert report["zero_input"]
    assert not report["consistent"]
    # the defect of the zero map is the size of the forced bracket part
    assert report["defect"] == np.abs(alg.C[:N2, n:N2, :N2]).max()
    assert np.abs(got.data).max() == 0.0


def test_second_torsion_perturbation_raises():
    alg = algebra("conformal", m=3)
    full = model_second_torsion(alg)
    bad = full.copy()
    bad[4, 1, 2] += 1e-3
    bad[1, 4, 2] -= 1e-3
    with pytest.raises(ValueError):
        second_torsion_reduction(alg, bad)


def test_second_torsion_shape_validation():
    alg = algebra("conformal", m=3)
    with pytest.raises(ValueError):
        second_torsion_reduction(alg, np.zeros((4, 4, 4)))


# ---------------------------------------------------------------------------
# flat structure function and transitivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_flat_structure_function_is_bracket(kind, params):
    alg = algebra(kind, **params)
    np.testing.assert_array_equal(flat_structure_function(alg), alg.C)


def test_flat_structure_function_localizes_curvature():
    alg = algebra("projective", q=3)
    rng = np.random.default_rng(68)
    n, n0, _ = alg.dims
    k0 = TwoCochain(0, rng.uniform(-1.0, 1.0, (n, n, n0)))
    S = flat_structure_function(alg, kappa0=k0)
    diff = S - alg.C
    np.testing.assert_array_equal(diff[:n, :n, alg.grade_slice(0)], k0.data)
    diff[:n, :n, alg.grade_slice(0)] = 0.0
    assert np.abs(diff).max() == 0.0


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_transitivity_witness_matches_type(kind, params):
    # ad: g_1 -> ker d is injective, so every d-closed grade-0 one-cochain
    # is some ad_Z (fiber transitivity) exactly when H11 vanishes
    alg = algebra(kind, **params)
    h11 = cohomology_dim(alg, "H11")
    assert (h11 == 0) == (not alg.projective_type)
    if alg.projective_type:
        assert h11 > 0


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_g1_acts_freely_and_faithfully(kind, params):
    # injectivity of Z -> [Z, .] underlies the transitivity witness
    ranks = faithfulness_ranks(algebra(kind, **params))
    got, expected = ranks["g1_to_hom"]
    assert got == expected
