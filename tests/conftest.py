"""Shared test helpers: a cached algebra factory, the parameter grid, a
recorder of trace-map builds, broken copies of an algebra and an explicit
basis of the harmonic two-cochains."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from ahsnormal import build_algebra, normalization
from ahsnormal.graded_algebra import _pairs, rank_cutoff
from ahsnormal.spencer import _value_dim, dstar_matrix
from ahsnormal.testkit import _block_trace_rows

# Full parameter grid: every kind over its validity range, with the
# degenerate sl(2) = grassmannian(1, 1) included for structural checks.
GRID = (
    [("conformal", {"m": m}) for m in range(3, 7)]
    + [("grassmannian", {"p": p, "q": q}) for p in range(1, 5) for q in range(p, 5)]
    + [("projective", {"q": q}) for q in range(2, 5)]
    + [("lagrangian", {"m": m}) for m in range(3, 7)]
    + [("spinorial", {"m": m}) for m in range(3, 7)]
)

# The 17-point default grid of ``ahsnormal verify``.
VERIFY_GRID = (
    [("conformal", {"m": m}) for m in range(3, 6)]
    + [("grassmannian", {"p": p, "q": q}) for p in range(1, 4) for q in range(p, 4)]
    + [("projective", {"q": q}) for q in range(2, 4)]
    + [("lagrangian", {"m": m}) for m in range(3, 6)]
    + [("spinorial", {"m": m}) for m in range(3, 6)]
)

# The largest tested point of each kind.
LARGEST = [
    ("conformal", {"m": 6}),
    ("grassmannian", {"p": 4, "q": 4}),
    ("projective", {"q": 4}),
    ("lagrangian", {"m": 6}),
    ("spinorial", {"m": 6}),
]

# One small representative per kind, for tests where the property is
# parameter-independent and the full grid would only add runtime.
SMALL = [
    ("conformal", {"m": 4}),
    ("grassmannian", {"p": 2, "q": 3}),
    ("projective", {"q": 3}),
    ("lagrangian", {"m": 3}),
    ("spinorial", {"m": 4}),
]


def grid_id(value) -> str:
    """Test-id fragment for one parametrize argument (kind or params)."""
    if isinstance(value, dict):
        return "-".join(str(value[k]) for k in sorted(value))
    return str(value)


@functools.lru_cache(maxsize=None)
def _cached(kind: str, items: tuple) -> object:
    return build_algebra(kind, **dict(items))


def algebra(kind: str, **params):
    """Cached algebra factory; tests must not mutate the returned object."""
    return _cached(kind, tuple(sorted(params.items())))


@pytest.fixture
def trace_map_builds(monkeypatch):
    """Empty the trace map's factorization cache, then list the algebra of
    every ``normalization.trace_map_matrix`` call."""
    builds = []
    real = normalization.trace_map_matrix

    def counting(alg):
        builds.append(alg)
        return real(alg)

    monkeypatch.setattr(normalization, "trace_map_matrix", counting)
    normalization._TRACE_MAP_CACHE.clear()
    return builds


def z_flips(alg):
    """Copies of the algebra with one [z, x] bracket (z in g_1, x in g_{-1})
    sign-flipped, one per nonzero structure constant of that block."""
    sz, sx = alg.grade_slice(1), alg.grade_slice(-1)
    for z, x, k in np.argwhere(alg.C[sz, sx] != 0.0):
        C = alg.C.copy()
        C[z + sz.start, x, k] *= -1.0
        C[x, z + sz.start, k] *= -1.0
        yield dataclasses.replace(alg, C=C)


def ref_alternating_injection(n: int, nv: int) -> np.ndarray:
    pairs = _pairs(n, -1)
    M = np.zeros((n * n * nv, len(pairs) * nv))
    for t, (a, b) in enumerate(pairs):
        for k in range(nv):
            M[(a * n + b) * nv + k, t * nv + k] = 1.0
            M[(b * n + a) * nv + k, t * nv + k] = -1.0
    return M


def ref_harmonic_basis(alg, grade: int, block_trace_free: bool = False) -> np.ndarray:
    """Basis of the harmonic alternating two-cochains at ``grade``.

    Columns are vectorized (n, n, nv) arrays in the kernel of the
    codifferential; with ``block_trace_free`` (grassmannian grade 0) the
    per-pair gl-block trace of the values vanishes as well.  Built by a
    dense SVD through an explicit alternating injection.
    """
    n = alg.dims[0]
    nv = _value_dim(alg, grade)
    alt = ref_alternating_injection(n, nv)
    rows = [dstar_matrix(alg, grade)]
    if block_trace_free:
        rows.append(_block_trace_rows(alg, grade))
    M = np.vstack(rows) @ alt
    _, s, vt = np.linalg.svd(M)
    rank = int((s > rank_cutoff(s.max(initial=0.0))).sum())
    return alt @ vt[rank:].T
