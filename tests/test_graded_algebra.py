"""Algebra construction: bracket tables, axioms, oracles, serialization."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import GRID, SMALL, algebra, grid_id, ref_bracket, ref_dense_C, with_dense_C

from ahsnormal import (
    KINDS,
    ParameterError,
    build_algebra,
    center_dim,
    cross_check_matrix_rep,
    faithfulness_ranks,
    graded_algebra,
    grading_residual,
    jacobi_residual,
    serialize,
)
from ahsnormal.graded_algebra import Blocks, Triplets, rank_cutoff
from ahsnormal.normalization import uniqueness_certificate


def coeffs(alg, a: str, b: str) -> dict[str, float]:
    """Bracket [a, b] of two basis elements as a {label: coefficient} dict."""
    i, j = alg.labels.index(a), alg.labels.index(b)
    return {alg.labels[k]: float(c) for k, c in enumerate(ref_dense_C(alg)[i, j]) if c != 0.0}


# ---------------------------------------------------------------------------
# hand-transcribed bracket entries (exact equality pins the conventions)
# ---------------------------------------------------------------------------


def test_bracket_table_conformal():
    alg = algebra("conformal", m=3)
    # [x_i, z_j] = -delta_ij Z0 + F_ij; grading element acts as -1 / +1
    assert coeffs(alg, "x1", "z1") == {"Z0": -1.0}
    assert coeffs(alg, "x1", "z2") == {"F(1,2)": 1.0}
    assert coeffs(alg, "x2", "z1") == {"F(1,2)": -1.0}
    assert coeffs(alg, "Z0", "x1") == {"x1": -1.0}
    assert coeffs(alg, "Z0", "z2") == {"z2": 1.0}
    # rotation generators: [F_kl, x_j] = delta_lj x_k - delta_kj x_l
    assert coeffs(alg, "F(1,2)", "x2") == {"x1": 1.0}
    assert coeffs(alg, "F(1,2)", "x1") == {"x2": -1.0}
    assert coeffs(alg, "F(1,2)", "x3") == {}
    assert coeffs(alg, "F(1,2)", "z2") == {"z1": 1.0}
    # g_{-1} and g_1 are abelian
    assert coeffs(alg, "x1", "x2") == {}
    assert coeffs(alg, "z1", "z3") == {}


def test_bracket_table_grassmannian():
    alg = algebra("grassmannian", p=2, q=3)
    # mixed bracket lands in the two gl blocks: pairing the 1..q indices
    # produces the gl(p) part, pairing the 1..p indices the gl(q) part
    assert coeffs(alg, "x^1_1", "z^1_2") == {"a^1_2": -1.0}
    assert coeffs(alg, "x^1_1", "z^2_1") == {"d^2_1": 1.0}
    assert coeffs(alg, "x^1_2", "z^1_1") == {"d^1_2": 1.0}
    assert coeffs(alg, "x^2_3", "z^1_1") == {}
    # fully diagonal pair lands in the Cartan part
    assert coeffs(alg, "x^1_1", "z^1_1") == {"H1": -1.0, "H2": -1.0}
    # gl action on the columns resp. rows of g_{-1}
    assert coeffs(alg, "a^1_2", "x^2_1") == {"x^1_1": -1.0}
    assert coeffs(alg, "d^1_2", "z^2_1") == {"z^1_1": -1.0}
    assert coeffs(alg, "d^1_2", "x^1_2") == {}
    assert coeffs(alg, "x^1_3", "x^2_1") == {}
    assert coeffs(alg, "z^1_1", "z^3_2") == {}


def test_bracket_table_grassmannian_diagonal_action():
    # the Cartan-valued bracket h = [x^1_1, z^1_1] acts with integer weights:
    # +1 on x^1_2 (same column index a=1) and 0 on x^2_2 (disjoint indices)
    alg = algebra("grassmannian", p=2, q=3)
    L = alg.labels

    def basis(label):
        v = np.zeros(alg.n_total)
        v[L.index(label)] = 1.0
        return v

    h = ref_bracket(alg, basis("x^1_1"), basis("z^1_1"))
    act = ref_bracket(alg, h, basis("x^1_2"))
    np.testing.assert_array_equal(act, basis("x^1_2"))
    act = ref_bracket(alg, h, basis("x^2_2"))
    np.testing.assert_array_equal(act, np.zeros(alg.n_total))


def test_bracket_table_projective():
    alg = algebra("projective", q=3)
    # [x_i, z_j] = h(j,i) + delta_ij * sum_k h(k,k)
    assert coeffs(alg, "x1", "z2") == {"h(2,1)": 1.0}
    assert coeffs(alg, "x1", "z1") == {"h(1,1)": 2.0, "h(2,2)": 1.0, "h(3,3)": 1.0}
    # [h(i,j), x_k] = delta_ik x_j and [h(i,j), z_k] = -delta_jk z_i
    assert coeffs(alg, "h(1,2)", "x1") == {"x2": 1.0}
    assert coeffs(alg, "h(1,2)", "x2") == {}
    assert coeffs(alg, "h(1,2)", "z2") == {"z1": -1.0}
    assert coeffs(alg, "h(1,2)", "z1") == {}


def test_bracket_table_lagrangian():
    alg = algebra("lagrangian", m=3)
    # symmetric-pair generators bracket through a four-delta pattern with
    # weight -1/4 per matching slot assignment
    assert coeffs(alg, "z(1,1)", "x(1,1)") == {"h(1,1)": -1.0}
    assert coeffs(alg, "z(1,2)", "x(1,1)") == {"h(2,1)": -0.5}
    assert coeffs(alg, "z(1,2)", "x(1,2)") == {"h(1,1)": -0.25, "h(2,2)": -0.25}
    assert coeffs(alg, "z(1,2)", "x(3,3)") == {}
    # gl(m) acts on the symmetric squares
    assert coeffs(alg, "h(1,2)", "x(1,2)") == {"x(2,2)": 1.0}
    assert coeffs(alg, "h(1,2)", "x(2,2)") == {}
    assert coeffs(alg, "h(1,2)", "z(1,1)") == {}


def test_bracket_table_spinorial():
    alg = algebra("spinorial", m=3)
    # antisymmetric-pair generators: same four-delta pattern with
    # alternating signs and weight +1/4
    assert coeffs(alg, "z(1,2)", "x(1,2)") == {"h(1,1)": 0.25, "h(2,2)": 0.25}
    assert coeffs(alg, "z(1,2)", "x(1,3)") == {"h(2,3)": 0.25}
    assert coeffs(alg, "z(1,2)", "x(2,3)") == {"h(1,3)": -0.25}
    assert coeffs(alg, "h(1,2)", "x(2,3)") == {}


# ---------------------------------------------------------------------------
# axioms and structural invariants over the full grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_axioms(kind, params):
    alg = algebra(kind, **params)
    assert grading_residual(alg) == 0.0
    assert jacobi_residual(alg) == 0.0
    assert center_dim(alg) == 1
    ranks = faithfulness_ranks(alg)
    for got, expected in ranks.values():
        assert got == expected


def ref_dense_rank(A: np.ndarray) -> int:
    s = np.linalg.svd(A, compute_uv=False)
    return int((s > rank_cutoff(s.max(initial=0.0))).sum())


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_structure_ranks_match_dense_svd(kind, params):
    alg = algebra(kind, **params)
    n, n0, n1 = alg.dims
    sl0 = alg.grade_slice(0)
    C00 = ref_dense_C(alg)[sl0, sl0, sl0]
    assert center_dim(alg) == n0 - ref_dense_rank(C00.reshape(n0, n0 * n0).T)
    ranks = faithfulness_ranks(alg)
    assert ranks["g0_on_gm1"] == (ref_dense_rank(alg.block(0, -1).reshape(n0, n * n).T), n0)
    assert ranks["g1_to_hom"] == (ref_dense_rank(alg.block(1, -1).reshape(n1, n * n0).T), n1)


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_sector_is_the_nonzeros_of_the_dense_block(kind, params):
    alg = algebra(kind, **params)
    for gx, gy in [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if abs(x + y) <= 1]:
        B = alg.block(gx, gy)
        *index, vals = alg.sector(gx, gy)
        want = np.nonzero(B)
        for got, ref in zip(index, want, strict=True):
            np.testing.assert_array_equal(got, ref)
        assert vals.tobytes() == B[want].tobytes()
    with pytest.raises(ValueError, match="out of range"):
        alg.sector(1, 1)


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_grading_residual_is_a_planted_entry(kind, params):
    alg = algebra(kind, **params)
    C = ref_dense_C(alg)
    C[0, 0, alg.dims[0]] = -0.375  # [g_{-1}, g_{-1}] lands in g_0, not in grade -2
    assert grading_residual(with_dense_C(alg, C)) == 0.375


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_faithfulness_counts_a_g0_element_acting_as_zero(kind, params):
    alg = algebra(kind, **params)
    n, n0, _ = alg.dims
    C = ref_dense_C(alg)
    C[n, :n, :n] = C[:n, n, :n] = 0.0
    assert faithfulness_ranks(with_dense_C(alg, C))["g0_on_gm1"] == (n0 - 1, n0)


def test_sparse_products_refuse_mismatched_inner_dimensions():
    A = Triplets([0], [0], [1.0], (1, 2))
    B = Blocks.split(A)
    for bad in (lambda: A @ np.ones(5), lambda: A @ Triplets([0], [0], [1.0], (3, 1)),
                lambda: B @ np.ones(5), lambda: np.ones(3) @ A, lambda: np.ones(3) @ B):
        with pytest.raises(ValueError, match="inner dimensions differ"):
            bad()
    assert (A @ np.ones(2)).tolist() == (B @ np.ones(2)).tolist() == [1.0]
    assert (np.ones(1) @ A).tolist() == (np.ones(1) @ B).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_structure_tensor_bytes(kind, params):
    # with the fingerprints of the i < j nonzeros this pins C byte for byte;
    # no stored zero of either sign: test_structure_constants_are_sorted_nonzero_triplets
    C = ref_dense_C(algebra(kind, **params))
    np.testing.assert_array_equal(C, -C.transpose(1, 0, 2))


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_structure_constants_are_sorted_nonzero_triplets(kind, params):
    alg = algebra(kind, **params)
    N = alg.n_total
    assert alg.C.shape == (N * N, N)
    assert (np.diff(alg.C.rows * N + alg.C.cols) > 0).all()
    assert (alg.C.vals != 0.0).all()  # -0.0 == 0.0, so neither zero is kept


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_matrix_representation_cross_check(kind, params):
    rep = cross_check_matrix_rep(algebra(kind, **params))
    assert rep["max_discrepancy"] == 0.0


def test_sector_scalars_projective():
    # the defining representation scales the g_0 sector by q + 1; the
    # cross-check exposes this as lambda_0 = q + 1 with lambda_{+-1} = 1
    for q in (2, 3, 4):
        scal = cross_check_matrix_rep(algebra("projective", q=q))["sector_scalars"]
        assert scal["(0,0)"] == q + 1
        assert scal["(-1,0)"] == q + 1
        assert scal["(0,1)"] == q + 1
        assert scal["(-1,1)"] == 1.0 / (q + 1)


def test_sector_scalars_trivial_elsewhere():
    for kind, params in SMALL:
        if kind == "projective":
            continue
        scal = cross_check_matrix_rep(algebra(kind, **params))["sector_scalars"]
        assert set(scal.values()) == {1.0}


def test_dims():
    assert algebra("conformal", m=4).dims == (4, 7, 4)
    assert algebra("grassmannian", p=2, q=3).dims == (6, 12, 6)
    assert algebra("projective", q=3).dims == (3, 9, 3)
    assert algebra("lagrangian", m=3).dims == (6, 9, 6)
    assert algebra("spinorial", m=4).dims == (6, 16, 6)
    assert algebra("grassmannian", p=1, q=1).dims == (1, 1, 1)


def test_total_dims_match_simple_algebra():
    # sl(p+q), sl(q+1), sp(2m), so(m,m), so(m+1,1)
    assert algebra("grassmannian", p=2, q=3).n_total == 5 * 5 - 1
    assert algebra("projective", q=3).n_total == 4 * 4 - 1
    assert algebra("lagrangian", m=3).n_total == 3 * 7
    assert algebra("spinorial", m=4).n_total == 8 * 7 // 2
    assert algebra("conformal", m=4).n_total == 6 * 5 // 2


def test_abelian_extremes():
    for kind, params in SMALL:
        alg = algebra(kind, **params)
        C = ref_dense_C(alg)
        assert np.abs(C[alg.grade_slice(-1), alg.grade_slice(-1)]).max() == 0.0
        assert np.abs(C[alg.grade_slice(1), alg.grade_slice(1)]).max() == 0.0


def test_flags():
    assert not algebra("grassmannian", p=1, q=1).normalizable
    assert algebra("grassmannian", p=1, q=2).normalizable
    expected_projective_type = {
        ("projective", (2,)): True,
        ("projective", (3,)): True,
        ("projective", (4,)): True,
        ("grassmannian", (1, 2)): True,
        ("grassmannian", (1, 3)): True,
        ("grassmannian", (1, 4)): True,
        ("spinorial", (3,)): True,
    }
    for kind, params in GRID:
        alg = algebra(kind, **params)
        key = (kind, tuple(params[k] for k in sorted(params)))
        assert alg.projective_type == expected_projective_type.get(key, False)


# ---------------------------------------------------------------------------
# pairing and duality
# ---------------------------------------------------------------------------


def test_pairing_matrices():
    np.testing.assert_array_equal(algebra("conformal", m=4).pairing, np.eye(4))
    np.testing.assert_array_equal(algebra("grassmannian", p=2, q=3).pairing, np.eye(6))
    np.testing.assert_array_equal(algebra("projective", q=3).pairing, np.eye(3))
    lag = algebra("lagrangian", m=3)
    diag = [1.0 if k == l else 0.5 for k in range(3) for l in range(k, 3)]
    np.testing.assert_array_equal(lag.pairing, np.diag(diag))
    spin = algebra("spinorial", m=4)
    np.testing.assert_array_equal(spin.pairing, 0.5 * np.eye(6))


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_dual_basis(kind, params):
    alg = algebra(kind, **params)
    np.testing.assert_array_equal(alg.dual_basis() @ alg.pairing, np.eye(alg.dims[0]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_serialize_round_trip(kind, params):
    alg = algebra(kind, **params)
    doc = serialize(alg)
    assert doc["kind"] == kind
    assert doc["params"] == params
    assert doc["dims"] == list(alg.dims)
    assert doc["labels"] == list(alg.labels)
    N = alg.n_total
    C = np.zeros((N, N, N))
    for i, j, k, v in doc["structure_constants"]:
        assert i < j
        C[i, j, k] = v
        C[j, i, k] = -v
    np.testing.assert_array_equal(C, ref_dense_C(alg))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_kinds_tuple():
    assert KINDS == ("conformal", "grassmannian", "projective", "lagrangian", "spinorial")


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_algebra("moebius", m=3)
    with pytest.raises(ParameterError):
        build_algebra("conformal", m=2)
    with pytest.raises(ParameterError):
        build_algebra("conformal")
    with pytest.raises(ParameterError):
        build_algebra("conformal", m=4, q=2)
    with pytest.raises(ParameterError):
        build_algebra("grassmannian", p=0, q=3)
    with pytest.raises(ParameterError):
        build_algebra("grassmannian", p=3, q=2)
    with pytest.raises(ParameterError):
        build_algebra("projective", q=1)
    with pytest.raises(ParameterError):
        build_algebra("lagrangian", m=2)
    with pytest.raises(ParameterError):
        build_algebra("spinorial", m=2)
    with pytest.raises(ParameterError):
        build_algebra("conformal", m="four")


def test_dimension_budget_rejects_huge_parameters():
    for kind, params in (
        ("conformal", {"m": 10**9}),
        ("grassmannian", {"p": 300, "q": 300}),
        ("projective", {"q": 10**9}),
        ("lagrangian", {"m": 10**9}),
        ("spinorial", {"m": 10**9}),
    ):
        with pytest.raises(ParameterError, match="1 GiB"):
            build_algebra(kind, **params)
    assert build_algebra("lagrangian", m=8).n_total == 136


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_dimension_budget_counts_dim_g(monkeypatch, kind, params):
    # the dimension checked before anything is built is the built algebra's
    N = algebra(kind, **params).n_total
    monkeypatch.setattr(graded_algebra, "MAX_DIM", N)
    assert build_algebra(kind, **params).n_total == N
    monkeypatch.setattr(graded_algebra, "MAX_DIM", N - 1)
    with pytest.raises(ParameterError, match=f"dim g = {N};"):
        build_algebra(kind, **params)


# ---------------------------------------------------------------------------
# build_algebra shares one read-only algebra per point
# ---------------------------------------------------------------------------

REPLAY_POINTS = GRID + [("lagrangian", {"m": 8}), ("spinorial", {"m": 8})]

BUILDERS = ("_build_conformal", "_build_grassmannian", "_build_projective", "_build_pair")


def fresh_build(kind: str, params: dict):
    """The kind's private builder run directly, past the shared algebras."""
    if kind in ("lagrangian", "spinorial"):
        return graded_algebra._build_pair(params["m"], 1 if kind == "lagrangian" else -1)
    return getattr(graded_algebra, f"_build_{kind}")(*(params[k] for k in ("p", "q", "m") if k in params))


def assert_same_algebra(a, b):
    """Bit-equal arrays and equal small fields, in separate memory."""
    assert a is not b and not np.shares_memory(a.C.vals, b.C.vals)
    assert a.C.shape == b.C.shape
    for x, y in ((a.C.rows, b.C.rows), (a.C.cols, b.C.cols), (a.C.vals, b.C.vals),
                 (a.pairing, b.pairing)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))
    assert a.g0_blocks.keys() == b.g0_blocks.keys()
    for name in a.g0_blocks:
        assert not np.shares_memory(a.g0_blocks[name], b.g0_blocks[name])
        np.testing.assert_array_equal(a.g0_blocks[name].view(np.int64),
                                      b.g0_blocks[name].view(np.int64))
    assert (a.kind, a.params, a.dims, a.labels, a.normalizable, a.projective_type) == (
        b.kind, b.params, b.dims, b.labels, b.normalizable, b.projective_type)


@pytest.fixture
def builds(monkeypatch):
    """No shared algebras, and a count of private builder runs per point."""
    graded_algebra._shared.cache_clear()
    runs: dict[tuple, int] = {}
    for name in BUILDERS:
        real = getattr(graded_algebra, name)

        def counting(*args, _real=real, _name=name):
            runs[(_name, *args)] = runs.get((_name, *args), 0) + 1
            return _real(*args)

        monkeypatch.setattr(graded_algebra, name, counting)
    yield runs
    graded_algebra._shared.cache_clear()  # its keys hold the counting builders


@pytest.mark.parametrize("kind,params", REPLAY_POINTS, ids=grid_id)
def test_replayed_algebra_equals_a_fresh_build(builds, kind, params):
    first = build_algebra(kind, **params)
    assert build_algebra(kind, **params) is first
    assert list(builds.values()) == [1]
    assert_same_algebra(first, fresh_build(kind, params))


def assert_read_only(alg) -> None:
    """Writing into any array, mapping or label of ``alg`` raises, and so
    does rebinding a field."""
    for array in (alg.C.rows, alg.C.cols, alg.C.vals, alg.pairing, *alg.g0_blocks.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] += 1
    assert isinstance(alg.labels, tuple)
    for mapping in (alg.params, alg.g0_blocks):
        with pytest.raises(TypeError):
            mapping["m"] = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.C = alg.C.T


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_replayed_algebras_are_independent_copies(builds, kind, params):
    # the one shared object cannot be written, so no caller sees another's edit
    clean = fresh_build(kind, params)
    alg = build_algebra(kind, **params)
    assert_read_only(alg)
    with pytest.raises(TypeError):
        alg.labels[0] = "mutated"
    assert build_algebra(kind, **params) is alg
    assert_same_algebra(alg, clean)


@pytest.mark.parametrize("kind,params", SMALL, ids=grid_id)
def test_replays_of_a_point_share_its_parts(builds, kind, params):
    first = build_algebra(kind, **params)
    faithfulness_ranks(first)
    second = build_algebra(kind, **params)
    assert second is first
    assert {"ad", "ad_rank"} <= second.parts.keys()


def test_a_replaced_copy_starts_with_no_parts(builds):
    alg = build_algebra("lagrangian", m=3)
    faithfulness_ranks(alg)
    for copy in (dataclasses.replace(alg), with_dense_C(alg, ref_dense_C(alg))):
        assert copy.parts == {} and copy.parts is not alg.parts
        assert_read_only(copy)
        assert copy.params == alg.params and copy.labels == alg.labels
    assert {"ad", "ad_rank"} <= alg.parts.keys()


def test_one_build_per_point_over_normalize_rounds(builds, tmp_path):
    from ahsnormal import cli

    points = [("conformal", {"m": 6}), ("grassmannian", {"p": 4, "q": 4}),
              ("projective", {"q": 4}), ("lagrangian", {"m": 6}), ("spinorial", {"m": 6})]
    argvs = []
    for kind, params in points:
        n, n0, _ = fresh_build(kind, params).dims
        src = tmp_path / f"{kind}.json"
        src.write_text(json.dumps({"kappa0": np.zeros((n, n, n0)).tolist()}))
        flags = [f"--{k}={v}" for k, v in params.items()]
        argvs.append(["normalize", "--kind", kind, *flags, "--input", str(src),
                      "--output", str(tmp_path / "out.json")])
    graded_algebra._shared.cache_clear()
    builds.clear()
    for _ in range(2):
        for argv in argvs:
            assert cli.main(argv) == cli.EXIT_OK
    assert builds == {("_build_conformal", 6): 1, ("_build_grassmannian", 4, 4): 1,
                       ("_build_projective", 4): 1, ("_build_pair", 6, 1): 1,
                       ("_build_pair", 6, -1): 1}


def test_ninth_point_evicts_the_oldest_recipe(builds):
    # the least recently used algebra goes first
    points = [("conformal", {"m": m}) for m in (3, 4, 5)] + [("projective", {"q": q}) for q in (2, 3)]
    points += [("lagrangian", {"m": 3}), ("spinorial", {"m": 3}), ("grassmannian", {"p": 1, "q": 2})]
    assert len(points) == graded_algebra._shared.cache_parameters()["maxsize"] >= 5
    for kind, params in points:
        build_algebra(kind, **params)
    build_algebra("conformal", m=3)  # now the most recently used
    build_algebra("grassmannian", p=2, q=2)  # drops conformal m = 4
    assert graded_algebra._shared.cache_info().currsize == len(points)
    build_algebra("conformal", m=3)
    build_algebra("projective", q=2)
    assert builds[("_build_conformal", 3)] == builds[("_build_projective", 2)] == 1
    build_algebra("conformal", m=4)
    assert builds[("_build_conformal", 4)] == 2


def test_evicting_a_recipe_drops_its_parts(builds, trace_map_builds):
    others = [("conformal", {"m": m}) for m in (4, 5)] + [("projective", {"q": q}) for q in (2, 3)]
    others += [("lagrangian", {"m": 3}), ("spinorial", {"m": 3}), ("grassmannian", {"p": 1, "q": 2}),
               ("grassmannian", {"p": 2, "q": 2})]
    assert len(others) == graded_algebra._shared.cache_parameters()["maxsize"]
    first = build_algebra("conformal", m=3)
    uniqueness_certificate(first)
    uniqueness_certificate(build_algebra("conformal", m=3))  # the same object: no new trace map
    for kind, params in others:
        build_algebra(kind, **params)
    again = build_algebra("conformal", m=3)
    assert again is not first and again.parts == {}
    uniqueness_certificate(again)
    assert trace_map_builds == [first, again]
