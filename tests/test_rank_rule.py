"""The one rank rule: a singular value counts as zero when it is at most
RANK_TOL * max(1, smax), and no reported rank depends on RANK_TOL."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import GRID, algebra, grid_id, ref_dense_C, triplets_from_dense

from ahsnormal.normalization import trace_map_matrix
from ahsnormal.spencer import (
    Blocks,
    _pair_cols,
    d_triplets,
    dstar_triplets,
)
from ahsnormal.testkit import _block_trace_rows

# Every singular value of a ranked operator is at most ZERO or at least
# NONZERO times max(1, smax); measured on GRID: 1.4e-15 and 0.10.
ZERO = 1e-12
NONZERO = 1e-3


def block_trace_correction(alg) -> np.ndarray:
    """The map that ``harmonic_sampler(block_trace_free=True)`` pseudo-inverts."""
    n, n0, _ = alg.dims
    D, S = d_triplets(alg, 1), dstar_triplets(alg, 0)
    P, _ = Blocks.split(S @ D).pinv()
    R = _block_trace_rows(alg, 0)
    G = R - ((R @ D) @ P) @ S
    swapped = G.reshape(G.shape[0], n, n, n0).transpose(0, 2, 1, 3).reshape(G.shape)
    return 0.5 * (G - swapped)


def ranked_operators(alg) -> dict[str, np.ndarray]:
    """Every matrix whose rank, kernel or pseudo-inverse the package takes."""
    n, n0, n1 = alg.dims
    ops = {}
    for grade in (-1, 0):
        D, S = d_triplets(alg, grade + 1), dstar_triplets(alg, grade)
        ops[f"d_half_{grade}"] = _pair_cols(D.T, n).T.dense()
        ops[f"dstar_half_{grade}"] = _pair_cols(S, n).dense()
        ops[f"dstar_d_{grade}"] = (S @ D).dense()
    sl0 = alg.grade_slice(0)
    ops["ad"] = alg.block(1, -1).reshape(n1, n * n0).T
    ops["trace_map"] = trace_map_matrix(alg).dense()
    ops["g0_center_map"] = ref_dense_C(alg)[sl0, sl0, sl0].reshape(n0, n0 * n0).T
    ops["g0_action"] = alg.block(0, -1).reshape(n0, n * n).T
    if alg.kind == "grassmannian" and alg.normalizable:
        ops["block_trace_correction"] = block_trace_correction(alg)
    return ops


@pytest.mark.parametrize("kind,params", GRID, ids=grid_id)
def test_singular_values_are_far_from_the_cutoff(kind, params):
    for name, A in ranked_operators(algebra(kind, **params)).items():
        s = np.linalg.svd(A, compute_uv=False)
        scale = max(1.0, s.max(initial=0.0))
        assert ((s <= ZERO * scale) | (s >= NONZERO * scale)).all(), name


@pytest.mark.parametrize(
    "diag,rank",
    [
        ([1e3, 2e-6, 5e-7], 2),  # cutoff RANK_TOL * smax = 1e-6
        ([0.5, 2e-9, 5e-10], 2),  # smax < 1: cutoff RANK_TOL = 1e-9
        ([0.0, 0.0], 0),
    ],
)
def test_rank_entry_points_share_the_cutoff(diag, rank):
    A = np.diag(diag)
    blocks = Blocks.split(triplets_from_dense(A))
    assert blocks.rank() == blocks.pinv()[1] == rank
