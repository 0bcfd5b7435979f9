"""Frame changes, torsion transformation, and the second-level reduction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import (
    GRID,
    SMALL,
    algebra,
    grid_id,
    ref_dense_C,
    ref_harmonic_decompose,
    z_flips,
)

from ahsnormal.graded_algebra import faithfulness_ranks
from ahsnormal.prolongation_model import (
    FrameChange,
    automorphism_residual,
    group_action_one_cochain,
    group_action_two_cochain,
    model_second_torsion,
    second_torsion_reduction,
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
def test_torsion_change_preserves_harmonic_class(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(62)
    n, n0, _ = alg.dims
    t = random_torsion(alg, rng)
    psi = OneCochain(0, rng.uniform(-1.0, 1.0, (n, n0)))
    # a connection change by psi moves the torsion to t - d(psi)
    before, _ = ref_harmonic_decompose(alg, t)
    after, _ = ref_harmonic_decompose(alg, TwoCochain(-1, t.data - spencer_d(alg, psi).data))
    np.testing.assert_allclose(after.data, before.data, atol=1e-10)


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
    fc = FrameChange.from_g0(alg, np.zeros(alg.dims[1]))
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
    assert report["defect"] == np.abs(ref_dense_C(alg)[:N2, n:N2, :N2]).max()
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_second_torsion_refuses_non_finite_input(bad):
    # an inf scales the bound to inf, which every residual passes, and an
    # inf pair makes the free component NaN: both must be refused
    alg = algebra("conformal", m=3)
    single = model_second_torsion(alg)
    single[0, 0, 0] = bad
    pair = model_second_torsion(alg)
    pair[0, 1, 4], pair[1, 0, 4] = bad, -bad
    for full in (single, pair):
        with pytest.raises(ValueError, match="finite"):
            second_torsion_reduction(alg, full)


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


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


def test_second_torsion_reduction_holds_at_most_half_an_input_more():
    # the defect reads copies of the two constrained slices only, and the
    # alternation and scale hold at most one input-sized temporary
    alg = algebra("lagrangian", m=9)
    full = model_second_torsion(alg)
    tracemalloc.start()
    try:
        _, report = second_torsion_reduction(alg, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["consistent"]
    assert peak <= 1.5 * full.nbytes
