"""No tolerance argument anywhere in the library: exact facts are decided
exactly and each float threshold is one named module constant.  Only the
command line reads ``--tolerance``, and only for float agreements."""

from __future__ import annotations

import inspect

import pytest

from ahsnormal import graded_algebra, normalization, prolongation_model, spencer, testkit

LIBRARY = (graded_algebra, spencer, normalization, prolongation_model, testkit)
KNOB_NAMES = {"tol", "tolerance", "rcond"}


def callables(module):
    """(qualified name, function) for every function and method the module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_no_library_function_takes_a_tolerance(module):
    found = list(callables(module))
    assert found
    knobs = [
        (name, param)
        for name, func in found
        for param in inspect.signature(func).parameters
        if param in KNOB_NAMES
    ]
    assert knobs == []


def test_each_threshold_is_one_named_constant():
    assert normalization.ORACLE_RESIDUAL_TOL == 1e-9
    assert normalization.FIBER_TOL == 1e-10
    assert normalization.FIBER_HARMONIC_TOL == 1e-9
    assert prolongation_model.SECOND_TORSION_TOL == 1e-10
    assert graded_algebra.RANK_TOL == 1e-9
