"""Exception taxonomy shared across the package.

Every failure that callers are expected to handle derives from HeunAirError,
so `except HeunAirError` cleanly separates domain/numeric refusals from
programming errors.
"""
from __future__ import annotations


class HeunAirError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(HeunAirError):
    """An operation would produce or store a NaN/Inf component."""


class PoleError(HeunAirError):
    """Evaluation requested at (or too close to) a pole."""


class ParamError(HeunAirError):
    """Parameters outside the admissible set of a function or family."""


class ConvergenceError(HeunAirError):
    """A series/continued fraction failed to converge within the term cap."""


class DomainError(HeunAirError):
    """Argument outside the domain of validity."""


class BranchError(HeunAirError):
    """Evaluation is undefined or ambiguous on the requested branch."""


class DegenerateError(HeunAirError):
    """A construction degenerates (vanishing leading data, dependent basis)."""


class ZeroCoefficientError(HeunAirError):
    """An operation requires a structurally nonzero coefficient."""


class RemovablePointError(HeunAirError):
    """Evaluation at an apparent singularity of the printed expression; the
    printed form is refused. Raised by the BHE general-branch members at
    x = -sigma, which is removable for y2 only: y1 continues across
    x = -Re sigma as a different solution (see solutions.solve_bhe)."""


class StiffnessError(HeunAirError):
    """Adaptive integrator step size collapsed below the resolvable scale."""


class SchemaError(HeunAirError):
    """A job specification failed validation; message carries the field path."""


class DegreeCapError(HeunAirError):
    """Polynomial arithmetic exceeded the supported degree bound."""
