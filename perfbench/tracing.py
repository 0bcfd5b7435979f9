"""In-memory spans around the calls into each ahsnormal module.

The tracer rebinds, from outside the package, every public function that
``ahsnormal.cli`` imported, ``FrameChange.from_g0``, and the dense
operator constructors (``spencer.d_matrix``, ``spencer.dstar_matrix``,
``normalization.trace_map_matrix``) in every package module that holds
them, so calls made inside the library are caught as well.  Nothing in
the package is edited; :meth:`Tracer.installed` restores every binding.

Spans are kept in a list and written out by the caller when the run ends.
A layer's time is the summed *self* time of its spans: a span's duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

# Per-layer metric -> (span names it sums, end-to-end metric@workload it
# should move).  Span names are "<module>.<function>"; "cli.main" is the
# root span of one request.  Every span name below belongs to exactly one
# layer, so the self times of all layers add up to the traced root spans.
LAYERS: dict[str, tuple[tuple[str, ...], str]] = {
    "graded_algebra.build": (
        ("graded_algebra.build_algebra",),
        "request_p50_ms, requests_per_s @ normalize-stream; wall_s @ verify-grid",
    ),
    "graded_algebra.jacobi": (
        ("graded_algebra.jacobi_residual",),
        "wall_s @ verify-large, verify-grid",
    ),
    "graded_algebra.checks": (
        (
            "graded_algebra.grading_residual",
            "graded_algebra.center_dim",
            "graded_algebra.faithfulness_ranks",
            "graded_algebra.cross_check_matrix_rep",
        ),
        "wall_s @ verify-large, verify-grid",
    ),
    "prolongation_model.automorphism": (
        ("prolongation_model.automorphism_residual",),
        "wall_s @ verify-grid, verify-large",
    ),
    "prolongation_model.frame_change": (
        ("prolongation_model.FrameChange.from_g0",),
        "wall_s @ verify-grid",
    ),
    "prolongation_model.torsion": (
        (
            "prolongation_model.z_drop_residual",
            "prolongation_model.torsion_equivariance",
            "prolongation_model.group_action_one_cochain",
            "prolongation_model.model_second_torsion",
            "prolongation_model.second_torsion_reduction",
        ),
        "wall_s @ verify-grid",
    ),
    "spencer.complementarity": (
        ("spencer.complementarity_check",),
        "wall_s, peak_rss_mb @ verify-large",
    ),
    "spencer.cohomology": (
        ("spencer.cohomology_dim",),
        "wall_s, peak_rss_mb @ verify-large",
    ),
    "spencer.operator": (
        ("spencer.d_matrix", "spencer.dstar_matrix"),
        "wall_s, peak_rss_mb @ verify-large",
    ),
    "spencer.codifferential": (
        ("spencer.spencer_dstar",),
        "wall_s @ verify-grid",
    ),
    "normalization.trace_map": (
        ("normalization.trace_map_matrix",),
        "request_p90_ms, requests_per_s @ normalize-stream",
    ),
    "normalization.oracle": (
        ("normalization.oracle_gamma",),
        "request_p50_ms @ normalize-stream",
    ),
    "normalization.closed_form": (
        ("normalization.gamma_closed_form",),
        "request_p50_ms @ normalize-stream",
    ),
    "normalization.traces": (
        (
            "normalization.trace_kappa0",
            "normalization.trace_kappa0_via_dstar",
            "normalization.deformation_delta_kappa0",
            "normalization.curvature_from_riemann",
        ),
        "request_p50_ms @ normalize-stream; wall_s @ verify-grid",
    ),
    "normalization.uniqueness": (
        ("normalization.uniqueness_certificate",),
        "wall_s @ verify-grid",
    ),
    "normalization.fiber": (
        ("normalization.fiber_constancy_check",),
        "wall_s @ verify-grid",
    ),
    "testkit.sampler_setup": (
        ("testkit.harmonic_sampler",),
        "wall_s @ verify-large",
    ),
    "testkit.draw": (
        ("testkit.round_trip_sample", "testkit.draw"),
        "wall_s @ verify-large",
    ),
    "cli.self": (
        ("cli.main",),
        "request_p50_ms @ normalize-stream",
    ),
}

# Counts named by the layer rather than "<layer>.calls".
COUNT_NAMES = {
    "spencer.operator": "spencer.operator_builds",
    "normalization.trace_map": "normalization.trace_map_builds",
}

# Functions rebound in every package module that holds them, so calls made
# from inside the library are traced too.
INNER = {"spencer": ("d_matrix", "dstar_matrix"), "normalization": ("trace_map_matrix",)}
# Package modules; cli last.
MODULES = ("graded_algebra", "spencer", "normalization", "prolongation_model", "testkit", "cli")
# Names cli imported that are not functions to time.
NOT_TRACED = {"KINDS", "GradedLieAlgebra", "ParameterError", "NonUniquenessError",
              "OneCochain", "TwoCochain", "FrameChange"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    size: tuple[int, int, int] | None = None  # (N, n, n0) of the algebra point
    nbytes: int = 0  # bytes of a returned dense operator

def _algebra_size(value) -> tuple[int, int, int] | None:
    dims = getattr(value, "dims", None)
    if dims is None or not hasattr(value, "n_total"):
        return None
    return (int(value.n_total), int(dims[0]), int(dims[1]))


@dataclass
class Tracer:
    """Records spans; ``request`` tags every span opened while it is set."""

    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    request: int = 0
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            size = _algebra_size(args[0]) if args else None
            span = Span(name, self.clock(), 0.0, parent, self.request, size)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if name == "graded_algebra.build_algebra":
                span.size = _algebra_size(result)
            elif name == "testkit.harmonic_sampler":
                result = self.wrap("testkit.draw", result)
            elif name in ("spencer.d_matrix", "spencer.dstar_matrix"):
                span.nbytes = int(result.nbytes)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names of the ``ahsnormal`` modules for the block."""
        mods = {m: importlib.import_module(f"ahsnormal.{m}") for m in MODULES}
        saved = []

        def rebind(obj, attr: str, name: str, fn) -> None:
            saved.append((obj, attr, obj.__dict__[attr]))
            setattr(obj, attr, self.wrap(name, fn))

        cli = mods["cli"]
        for attr, value in list(vars(cli).items()):
            home = getattr(value, "__module__", "").rpartition(".")[2]
            if callable(value) and attr not in NOT_TRACED and home in MODULES[:-1]:
                rebind(cli, attr, f"{home}.{attr}", value)
        for home, names in INNER.items():
            for attr in names:
                fn = getattr(mods[home], attr)
                for mod in mods.values():
                    if vars(mod).get(attr) is fn:  # cli's binding is wrapped already
                        rebind(mod, attr, f"{home}.{attr}", fn)
        fc = mods["prolongation_model"].FrameChange
        rebind(fc, "from_g0", "prolongation_model.FrameChange.from_g0", fc.from_g0)
        fc.from_g0 = staticmethod(fc.from_g0)
        try:
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer self time (s) and exact call count, plus the operator bytes.

    Raises:
        ValueError: a span name belongs to no layer, so its time would be
            lost from the breakdown.
    """
    owner = {name: layer for layer, (names, _) in LAYERS.items() for name in names}
    secs = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    op_bytes = 0
    for span, own in zip(spans, self_times(spans)):
        layer = owner.get(span.name)
        if layer is None:
            raise ValueError(f"span {span.name!r} belongs to no layer")
        secs[layer] += own
        calls[layer] += 1
        op_bytes += span.nbytes
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = (secs[layer], "s")
        out[COUNT_NAMES.get(layer, f"{layer}.calls")] = (calls[layer], "count")
    out["spencer.dense_operator_bytes"] = (op_bytes, "bytes")
    return out
