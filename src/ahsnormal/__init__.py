"""Normalization of Cartan connections for almost Hermitian symmetric structures.

The package constructs the |1|-graded semisimple Lie algebras underlying the
classical AHS geometries (conformal, grassmannian, projective, lagrangian,
spinorial), implements the Spencer differential and codifferential together
with the curvature-trace operators, and computes the deformation tensor that
carries a soldered Cartan connection to the normal one, both through
closed-form trace formulas and through an independent linear-solve oracle.
"""

from .graded_algebra import (
    KINDS,
    GradedLieAlgebra,
    ParameterError,
    build_algebra,
    center_dim,
    cross_check_matrix_rep,
    faithfulness_ranks,
    grading_residual,
    jacobi_residual,
    matrix_representation,
    serialize,
)

__all__ = [
    "KINDS",
    "GradedLieAlgebra",
    "ParameterError",
    "build_algebra",
    "center_dim",
    "cross_check_matrix_rep",
    "faithfulness_ranks",
    "grading_residual",
    "jacobi_residual",
    "matrix_representation",
    "serialize",
]

__version__ = "0.1.0"
