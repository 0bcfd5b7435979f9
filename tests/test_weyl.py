"""The normalized curvature is the Weyl tensor.

Classical conformal and projective geometry give the answer independently
of the Spencer complex: normalizing a curvature R leaves its Weyl part W,
and the deformation tensor is the Schouten tensor P, up to sign.  Here
R[a, b, k, l] is read as R^a_{bkl} (endomorphism indices first), the
reading in which ``ricci_from_riemann`` is Ric_{bl} = R^a_{bal}.

* conformal: W = R - P (.) g, the Kulkarni-Nomizu product with the metric,
  P = (Ric - s g / (2(m-1))) / (m-2), and Gamma = -P;
* projective: W^a_{bkl} = R^a_{bkl} - delta^a_k P_{lb} + delta^a_l P_{kb}
  + delta^a_b (P_{kl} - P_{lk}), P = Ric_sym / (q-1) - Ric_alt / (q+1),
  and Gamma = P.

Both routes to Gamma are checked: the closed form and the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import algebra, grid_id, ref_riemann_projection

from ahsnormal.normalization import (
    curvature_from_riemann,
    deformation_delta_kappa0,
    gamma_closed_form,
    oracle_gamma,
    ricci_from_riemann,
)

WEYL_POINTS = [("conformal", {"m": m}) for m in range(3, 7)] + [
    ("projective", {"q": q}) for q in range(2, 7)
]
DRAWS = 3
ROUTES = {"closed_form": gamma_closed_form, "oracle": oracle_gamma}


def ref_schouten(kind: str, R: np.ndarray) -> np.ndarray:
    """The (projective) Schouten tensor P of the curvature R."""
    n = R.shape[0]
    ric = ricci_from_riemann(R)
    if kind == "conformal":
        return (ric - np.trace(ric) * np.eye(n) / (2 * (n - 1))) / (n - 2)
    sym, alt = 0.5 * (ric + ric.T), 0.5 * (ric - ric.T)
    return sym / (n - 1) - alt / (n + 1)


def ref_weyl(kind: str, R: np.ndarray) -> np.ndarray:
    """R minus its Schouten part, in the index order of R."""
    P = ref_schouten(kind, R)
    g = np.eye(R.shape[0])
    if kind == "conformal":
        # the Kulkarni-Nomizu product (P (.) g)_{abkl}
        kn = (np.einsum("ak,bl->abkl", P, g) + np.einsum("bl,ak->abkl", P, g)
              - np.einsum("al,bk->abkl", P, g) - np.einsum("bk,al->abkl", P, g))
        return R - kn
    return (R - np.einsum("ak,lb->abkl", g, P) + np.einsum("al,kb->abkl", g, P)
            + np.einsum("ab,kl->abkl", g, P - P.T))


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("kind,params", WEYL_POINTS, ids=grid_id)
def test_normalized_curvature_is_the_weyl_tensor(kind, params, route):
    alg = algebra(kind, **params)
    n = alg.dims[0]
    rng = np.random.default_rng(23)
    sign = -1.0 if kind == "conformal" else 1.0  # Gamma = -P, resp. P
    for _ in range(DRAWS):
        R = ref_riemann_projection(rng.uniform(-1.0, 1.0, (n, n, n, n)), kind)
        bound = 1e-12 * max(1.0, float(np.abs(R).max()))
        W = ref_weyl(kind, R)
        assert np.abs(ricci_from_riemann(W)).max() <= bound
        kappa0 = curvature_from_riemann(alg, R)
        gamma = ROUTES[route](alg, kappa0).gamma
        assert np.abs(gamma.data - sign * ref_schouten(kind, R)).max() <= bound
        kbar = kappa0.data - deformation_delta_kappa0(alg, gamma).data
        assert np.abs(kbar - curvature_from_riemann(alg, W).data).max() <= bound


@pytest.mark.parametrize("m", [4, 5, 6])
def test_conformally_flat_product_normalizes_to_zero(m):
    # S^2 x H^(m-2) with sectional curvatures 1 and -1 is conformally flat:
    # its Weyl tensor, and so its normalized curvature, vanishes
    alg = algebra("conformal", m=m)
    g1 = np.diag([1.0, 1.0] + [0.0] * (m - 2))
    g2 = np.eye(m) - g1
    R = sum(K * (np.einsum("ak,bl->abkl", h, h) - np.einsum("al,bk->abkl", h, h))
            for K, h in ((1.0, g1), (-1.0, g2)))
    assert np.abs(ref_weyl("conformal", R)).max() <= 1e-12
    kappa0 = curvature_from_riemann(alg, R)
    for solve in ROUTES.values():
        kbar = kappa0.data - deformation_delta_kappa0(alg, solve(alg, kappa0).gamma).data
        assert np.abs(kbar).max() <= 1e-12
