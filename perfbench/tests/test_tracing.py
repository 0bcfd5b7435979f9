"""Span self-time arithmetic and the tracer's rebinding."""

import pytest

import tracing
from tracing import Span, Tracer, layer_metrics, self_times


def tree() -> list[Span]:
    # root [0, 10] has a nested chain and two siblings; the second sibling
    # overlaps the first and runs past the root's end, so only the part of
    # the union inside [0, 10] is subtracted.
    return [
        Span("cli.main", 0.0, 10.0, None, 0),                     # 0
        Span("normalization.oracle_gamma", 1.0, 4.0, 0, 0),       # 1
        Span("normalization.trace_map_matrix", 1.5, 3.5, 1, 0),   # 2
        Span("spencer.d_matrix", 2.0, 3.0, 2, 0, nbytes=64),      # 3
        Span("spencer.dstar_matrix", 6.0, 8.0, 0, 0, nbytes=32),  # 4
        Span("spencer.d_matrix", 7.0, 11.0, 0, 0, nbytes=16),     # 5
        Span("cli.main", 20.0, 21.5, None, 1),                    # 6
    ]


def test_self_time_subtracts_child_union():
    got = self_times(tree())
    # root: 10 - |[1,4] u [6,8] u [7,10]| = 10 - (3 + 4)
    assert got == pytest.approx([3.0, 1.0, 1.0, 1.0, 2.0, 4.0, 1.5])


def test_layer_sums_and_exact_counts():
    m = layer_metrics(tree())
    assert m["cli.self_s"] == (pytest.approx(4.5), "s")
    assert m["cli.self.calls"] == (2, "count")
    assert m["normalization.oracle_s"][0] == pytest.approx(1.0)
    assert m["normalization.trace_map_builds"] == (1, "count")
    assert m["spencer.operator_s"][0] == pytest.approx(7.0)
    assert m["spencer.operator_builds"] == (3, "count")
    assert m["spencer.dense_operator_bytes"] == (112, "bytes")
    assert m["graded_algebra.jacobi_s"] == (0.0, "s")


def test_unknown_span_is_refused():
    with pytest.raises(ValueError):
        layer_metrics([Span("cli.unknown", 0.0, 1.0, None, 0)])


def test_wrap_links_parents_and_requests():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("spencer.cohomology_dim", lambda: None)
    outer = tr.wrap("cli.main", lambda: inner())
    tr.request = 7
    outer()
    assert [(s.name, s.parent, s.request) for s in tr.spans] == [
        ("cli.main", None, 7),
        ("spencer.cohomology_dim", 0, 7),
    ]
    assert [(s.start, s.end) for s in tr.spans] == [(0.0, 3.0), (1.0, 2.0)]


def test_installed_traces_library_calls_and_restores():
    from ahsnormal import cli, normalization, spencer, testkit
    from ahsnormal.prolongation_model import FrameChange

    originals = (cli.build_algebra, spencer.d_matrix, testkit.dstar_matrix,
                 normalization.trace_map_matrix, FrameChange.__dict__["from_g0"])
    tr = Tracer()
    with tr.installed():
        alg = cli.build_algebra("projective", q=2)
        cli.uniqueness_certificate(alg)
        cli.complementarity_check(alg, 0)
        FrameChange.from_g0(alg, [0.0] * alg.dims[1])
    assert (cli.build_algebra, spencer.d_matrix, testkit.dstar_matrix,
            normalization.trace_map_matrix, FrameChange.__dict__["from_g0"]) == originals
    names = [s.name for s in tr.spans]
    assert names == [
        "graded_algebra.build_algebra",
        "normalization.uniqueness_certificate",
        "normalization.trace_map_matrix",
        "spencer.complementarity_check",
        "spencer.d_matrix",
        "spencer.dstar_matrix",
        "prolongation_model.FrameChange.from_g0",
    ]
    assert tr.spans[2].parent == 1 and tr.spans[4].parent == 3
    assert tr.spans[0].size == (8, 2, 4)
    assert tr.spans[4].nbytes > 0
    m = layer_metrics(tr.spans)
    assert m["spencer.operator_builds"] == (2, "count")
