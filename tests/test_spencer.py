"""Spencer differential, codifferential, cohomology, and harmonic splitting."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    GRID,
    SMALL,
    VERIFY_GRID,
    algebra,
    grid_id,
    ref_bracket,
    ref_harmonic_decompose,
    ref_spencer_d,
)
from test_kernel_references import ref_d_matrix, ref_dstar_matrix

from ahsnormal import build_algebra, cli, graded_algebra
from ahsnormal.graded_algebra import HUGE_PAGE_ADVICE_BYTES, Blocks
from ahsnormal.spencer import (
    OneCochain,
    TwoCochain,
    cohomology_dim,
    complementarity_check,
    d_matrix,
    dstar_matrix,
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
            expected = ref_bracket(alg, ga, xb) - ref_bracket(alg, gb, xa)
            np.testing.assert_allclose(out.data[a, b], expected[sl0], atol=1e-13)


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_d_equals_the_einsum_reference(kind, params):
    # Each entry of d psi sums the exact products psi[a, u] C[u, b, k] (the
    # constants are powers of two) and their negated transposes.  At grade 1
    # each half has one term, so d applied from its triplets equals the
    # einsum byte for byte.  At grade 0 a half has up to four terms, which the
    # triplets add one by one and the einsum sums before subtracting, so the
    # two may differ by the rounding of those sums of at most 8 terms.
    alg = algebra(kind, **params)
    rng = np.random.default_rng(404)
    for grade in (0, 1):
        psi = random_one(alg, grade, rng)
        got, ref = spencer_d(alg, psi), ref_spencer_d(alg, psi)
        assert got.grade == ref.grade == grade - 1
        if grade == 1:
            assert got.data.tobytes() == ref.data.tobytes()
        mass = np.einsum("au,ubk->abk", np.abs(psi.data), np.abs(alg.block(grade, -1)))
        bound = 7 * np.finfo(float).eps * (mass + mass.transpose(1, 0, 2))
        assert (np.abs(got.data - ref.data) <= bound).all()


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


# The verify grid, whose dense operators are all below the huge-page line
# but lagrangian m = 5's, and lagrangian m = 6, whose four are all above it.
DENSE_POINTS = list(VERIFY_GRID) + [("lagrangian", {"m": 6})]


@pytest.mark.parametrize("kind,params", DENSE_POINTS, ids=grid_id)
def test_dense_operators_match_loop_builders(kind, params):
    alg = algebra(kind, **params)
    for build, ref, grades in ((d_matrix, ref_d_matrix, (0, 1)),
                               (dstar_matrix, ref_dstar_matrix, (-1, 0))):
        for grade in grades:
            M = build(alg, grade)
            assert M.dtype == np.float64
            assert M.flags.c_contiguous and M.flags.writeable
            np.testing.assert_array_equal(M, ref(alg, grade))


def test_dense_points_lie_on_both_sides_of_the_huge_page_line():
    sizes = {(kind, grid_id(params)): d_matrix(algebra(kind, **params), 1).nbytes
             for kind, params in DENSE_POINTS}
    assert sizes[("lagrangian", "5")] >= HUGE_PAGE_ADVICE_BYTES
    assert sizes[("lagrangian", "6")] >= HUGE_PAGE_ADVICE_BYTES
    assert min(sizes.values()) < HUGE_PAGE_ADVICE_BYTES


# Run by a bare interpreter, since a child's peak RSS starts from that of
# the process it was forked from; verify's report goes to /dev/null.
PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "ahsnormal", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_dense_operators_cost_only_their_touched_pages():
    # backed by huge pages, the dense operators made this run peak at 278 MB;
    # on small pages it peaks at about 116 MB
    argv = ["verify", "--kind", "lagrangian", "--m", "7"]
    probe = subprocess.run([sys.executable, "-c", PEAK_RSS_PROBE, *argv],
                           capture_output=True, text=True, check=True)
    code, maxrss = map(int, probe.stdout.split())
    assert code == 0
    assert maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10) < 200


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
    harm, psi = ref_harmonic_decompose(alg, t)
    scale = max(1.0, float(np.abs(t.data).max()))
    recon = harm.data + spencer_d(alg, psi).data
    np.testing.assert_allclose(recon, t.data, atol=1e-11 * scale)
    assert np.abs(spencer_dstar(alg, harm).data).max() <= 1e-11 * scale


def test_harmonic_part_of_exact_cochain_vanishes():
    alg = algebra("conformal", m=4)
    rng = np.random.default_rng(55)
    psi = random_one(alg, 1, rng)
    harm, _ = ref_harmonic_decompose(alg, spencer_d(alg, psi))
    assert np.abs(harm.data).max() <= 1e-11


# ---------------------------------------------------------------------------
# g_0 equivariance
# ---------------------------------------------------------------------------


def ref_g0_action_one_cochain(alg, A, psi):
    """Infinitesimal g_0 action (A . psi)(X) = [A, psi(X)] - psi([A, X])."""
    act_val = alg.block(0, psi.grade)
    act_m1 = alg.block(0, -1)
    term1 = np.einsum("c,au,cuv->av", A, psi.data, act_val)
    term2 = np.einsum("c,cab,bv->av", A, act_m1, psi.data)
    return OneCochain(psi.grade, term1 - term2)


def ref_g0_action_two_cochain(alg, A, phi):
    """Infinitesimal g_0 action on two-cochains.

    (A . phi)(X, Y) = [A, phi(X, Y)] - phi([A, X], Y) - phi(X, [A, Y]).
    """
    act_val = alg.block(0, phi.grade)
    act_m1 = alg.block(0, -1)
    term1 = np.einsum("c,abk,ckv->abv", A, phi.data, act_val)
    term2 = np.einsum("c,cau,ubv->abv", A, act_m1, phi.data)
    term3 = np.einsum("c,cbu,auv->abv", A, act_m1, phi.data)
    return TwoCochain(phi.grade, term1 - term2 - term3)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_d_equivariance(kind, params):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(202)
    A = rng.uniform(-1.0, 1.0, alg.dims[1])
    psi = random_one(alg, 1, rng)
    lhs = spencer_d(alg, ref_g0_action_one_cochain(alg, A, psi))
    rhs = ref_g0_action_two_cochain(alg, A, spencer_d(alg, psi))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)


@pytest.mark.parametrize("grade", [-1, 0])
@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_dstar_equivariance(kind, params, grade):
    alg = algebra(kind, **params)
    rng = np.random.default_rng(203)
    A = rng.uniform(-1.0, 1.0, alg.dims[1])
    phi = random_two(alg, grade, rng)
    lhs = spencer_dstar(alg, ref_g0_action_two_cochain(alg, A, phi))
    rhs = ref_g0_action_one_cochain(alg, A, spencer_dstar(alg, phi))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)


# ---------------------------------------------------------------------------
# one Spencer complex per algebra
# ---------------------------------------------------------------------------


def _split_calls(monkeypatch, argv) -> int:
    """``Blocks.split`` calls of one in-process CLI run on an empty cache."""
    calls = []
    split = Blocks.split.__func__

    def counting(cls, A):
        calls.append(A.shape)
        return split(cls, A)

    monkeypatch.setattr(Blocks, "split", classmethod(counting))
    graded_algebra._shared.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return len(calls)


def test_one_split_per_operator(monkeypatch):
    # per point: the center, the g_0 action and ad, the a < b forms of d at
    # grades 0 and 1 and of d* at grades -1 and 0, d* d at grades -1 and 0,
    # and the trace map, each once; ad's rank serves faithfulness and H11.
    # Each of the 5 normalizable grassmannian points of the default grid
    # splits one more: the Gram of the sampler's block-trace correction
    assert _split_calls(monkeypatch, ["verify", "--kind", "lagrangian", "--m", "4"]) == 10
    assert _split_calls(monkeypatch, ["verify"]) == 175


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dict__"):
        yield from _arrays(list(vars(value).values()))


def test_complex_parts_are_read_only_and_sparse():
    graded_algebra._shared.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--kind", "lagrangian", "--m", "4", "--samples", "1"]) == 0
    arrays = list(_arrays(list(build_algebra("lagrangian", m=4).parts.values())))
    assert arrays and not any(a.flags.writeable for a in arrays)
    alg = algebra("lagrangian", m=4)
    smallest_dense = min(d_matrix(alg, 0).nbytes, d_matrix(alg, 1).nbytes)
    assert sum(a.nbytes for a in arrays) < smallest_dense / 4


def _report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}"


def test_debug_mutate_report_does_not_depend_on_the_cache():
    mutated = ["verify", "--kind", "lagrangian", "--m", "4", "--samples", "1", "--debug-mutate"]
    intact = mutated[:-1]
    graded_algebra._shared.cache_clear()
    cold = _report(mutated), _report(intact)
    graded_algebra._shared.cache_clear()
    intact_first = _report(intact)
    assert (_report(mutated), intact_first) == cold
    assert cold[0].endswith("exit 4") and cold[1].endswith("exit 0")
