"""Sample generators: symmetry enforcement, harmonic projection, brute-force maps."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    SMALL,
    algebra,
    grid_id,
    ref_brute_force_trace_map,
    ref_harmonic_basis,
    ref_harmonic_decompose,
    ref_riemann_projection,
)

from ahsnormal.normalization import (
    block_trace_g0,
    deformation_delta_kappa0,
    trace_map_matrix,
)
from ahsnormal.spencer import OneCochain, TwoCochain, spencer_dstar
from ahsnormal.testkit import (
    harmonic_sampler,
    random_gamma,
    round_trip_sample,
)


# ---------------------------------------------------------------------------
# symmetry classes
# ---------------------------------------------------------------------------


def test_riemann_projection_conformal_symmetries():
    rng = np.random.default_rng(801)
    R = ref_riemann_projection(rng.uniform(-1.0, 1.0, (4, 4, 4, 4)), "conformal")
    assert np.abs(R + R.transpose(1, 0, 2, 3)).max() <= 1e-13
    assert np.abs(R + R.transpose(0, 1, 3, 2)).max() <= 1e-13
    assert np.abs(R - R.transpose(2, 3, 0, 1)).max() <= 1e-13
    cyc = R + np.einsum("iklj->ijkl", R) + np.einsum("iljk->ijkl", R)
    assert np.abs(cyc).max() <= 1e-13
    # idempotent
    np.testing.assert_allclose(ref_riemann_projection(R, "conformal"), R, atol=1e-13)


def test_riemann_projection_projective_symmetries():
    rng = np.random.default_rng(802)
    R = ref_riemann_projection(rng.uniform(-1.0, 1.0, (3, 3, 3, 3)), "projective")
    assert np.abs(R + R.transpose(0, 1, 3, 2)).max() <= 1e-13
    cyc = R + np.einsum("iklj->ijkl", R) + np.einsum("iljk->ijkl", R)
    assert np.abs(cyc).max() <= 1e-13
    np.testing.assert_allclose(ref_riemann_projection(R, "projective"), R, atol=1e-13)


def test_riemann_projection_rejects_other_kinds():
    with pytest.raises(ValueError):
        ref_riemann_projection(np.zeros((3, 3, 3, 3)), "lagrangian")


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_harmonic_samples_are_harmonic(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(11)
    for draw in (harmonic_sampler(alg, -1), harmonic_sampler(alg, 0)):
        for phi in (draw(rng), draw(rng)):
            res = np.abs(spencer_dstar(alg, phi).data).max()
            scale = max(1.0, float(np.abs(phi.data).max()))
            assert res <= 1e-11 * scale


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_deformation_image_samples_have_no_harmonic_part(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(13)
    gamma = OneCochain(1, rng.uniform(-1.0, 1.0, (alg.dims[0], alg.dims[2])))
    kappa0 = deformation_delta_kappa0(alg, gamma)
    harm, _ = ref_harmonic_decompose(alg, kappa0)
    scale = max(1.0, float(np.abs(kappa0.data).max()))
    assert np.abs(harm.data).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# harmonic machinery
# ---------------------------------------------------------------------------


def test_harmonic_basis_dimensions_grassmannian():
    # the plain harmonic space at grade 0 carries gl-block-trace data; the
    # joint kernel drops exactly that many dimensions
    alg = algebra("grassmannian", p=2, q=2)
    plain = ref_harmonic_basis(alg, 0)
    joint = ref_harmonic_basis(alg, 0, block_trace_free=True)
    assert plain.shape[1] == 26
    assert joint.shape[1] == 20
    rng = np.random.default_rng(19)
    h = harmonic_sampler(alg, 0, block_trace_free=True)(rng)
    assert np.abs(block_trace_g0(alg, h, "D")).max() <= 1e-12
    assert np.abs(block_trace_g0(alg, h, "A")).max() <= 1e-12


def test_block_trace_correction_vanishes_where_it_is_rounding_noise():
    # at p = 1 harmonic grade-0 cochains carry no block-trace data: the
    # correction map's largest singular value is 2.8e-16, all of it rounding
    alg = algebra("grassmannian", p=1, q=2)
    assert ref_harmonic_basis(alg, 0).shape == ref_harmonic_basis(alg, 0, block_trace_free=True).shape
    got = harmonic_sampler(alg, 0, block_trace_free=True)(np.random.default_rng(5))
    plain = harmonic_sampler(alg, 0)(np.random.default_rng(5))
    np.testing.assert_array_equal(got.data, plain.data)


def test_block_trace_free_rejected_off_grassmannian():
    with pytest.raises(ValueError):
        harmonic_sampler(algebra("conformal", m=3), 0, block_trace_free=True)
    with pytest.raises(ValueError):
        ref_harmonic_basis(algebra("conformal", m=3), 0, block_trace_free=True)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_sampler_agrees_with_basis_subspace(kind, params):
    # samples drawn by projection lie in the span of the explicit basis
    alg = algebra(kind, **params)
    H = ref_harmonic_basis(alg, 0)
    rng = np.random.default_rng(23)
    h = harmonic_sampler(alg, 0)(rng).data.reshape(-1)
    if H.shape[1] == 0:
        assert np.abs(h).max() <= 1e-12
    else:
        coeff = np.linalg.lstsq(H, h, rcond=None)[0]
        assert np.abs(h - H @ coeff).max() <= 1e-10 * max(1.0, np.abs(h).max())


# ---------------------------------------------------------------------------
# deformation sampling and the brute-force trace map
# ---------------------------------------------------------------------------


def test_random_gamma_symmetry_classes():
    rng = np.random.default_rng(29)
    g = random_gamma(algebra("conformal", m=4), rng).data
    np.testing.assert_array_equal(g, g.T)
    # lagrangian/spinorial deformations are pair-exchange symmetric once
    # re-weighted to all-pairs coefficients: recover F and check
    for kind, weight_diag in (("lagrangian", 1.0), ("spinorial", None)):
        alg = algebra(kind, m=3 if kind == "lagrangian" else 4)
        m = alg.params["m"]
        g = random_gamma(alg, rng).data
        if kind == "lagrangian":
            pairs = [(k, l) for k in range(m) for l in range(k, m)]
            F = {
                (s, t, i, j): g[ti, ui] / (1.0 if s == t else 2.0)
                for ti, (i, j) in enumerate(pairs)
                for ui, (s, t) in enumerate(pairs)
            }
        else:
            pairs = [(k, l) for k in range(m) for l in range(m) if k < l]
            F = {
                (s, t, i, j): g[ti, ui] / 2.0
                for ti, (i, j) in enumerate(pairs)
                for ui, (s, t) in enumerate(pairs)
            }
        for (s, t, i, j), v in F.items():
            assert F[(i, j, s, t)] == pytest.approx(v, abs=1e-13)


def test_round_trip_sample_pollutes_with_harmonic_data():
    alg = algebra("grassmannian", p=2, q=2)
    rng = np.random.default_rng(31)
    gamma, k0 = round_trip_sample(alg, rng)
    extra = k0.data - deformation_delta_kappa0(alg, gamma).data
    assert np.abs(extra).max() > 1e-3  # pollution genuinely present
    res = np.abs(spencer_dstar(alg, TwoCochain(0, extra)).data).max()
    assert res <= 1e-11


def test_brute_force_trace_map_matches_and_solves():
    alg = algebra("grassmannian", p=2, q=2)
    M = ref_brute_force_trace_map(alg)
    n, _, n1 = alg.dims
    assert M.shape == (n * n, n * n1)
    np.testing.assert_array_equal(M, trace_map_matrix(alg).dense())
    assert np.linalg.matrix_rank(M, tol=1e-9) == n * n1
    assert np.abs(M @ np.zeros(n * n1)).max() == 0.0


def test_brute_force_trace_map_rank_deficient_on_sl2():
    M = ref_brute_force_trace_map(algebra("grassmannian", p=1, q=1))
    assert M.shape == (1, 1)
    assert np.linalg.matrix_rank(M, tol=1e-9) == 0
