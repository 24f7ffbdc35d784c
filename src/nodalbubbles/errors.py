"""Exception taxonomy shared by all modules.

The command-line front end maps these onto stable exit codes; library users
can catch them individually.  Everything derives from ``NodalBubblesError``
so a single ``except`` clause can fence off the whole package.

The module also holds the one rule for what counts as a number in a JSON
input (:func:`_is_number`), shared by the run configuration and the
bubble configuration; it imports the standard library alone.
"""

from __future__ import annotations

import sys

__all__ = ["NodalBubblesError", "ParameterError", "ConfigurationError",
           "DomainError", "SingularityError", "QuadratureError",
           "SearchError", "ResolutionError", "SolverDivergenceError"]


def _is_number(v, kind=(int, float)) -> bool:
    """``v`` is a JSON number of ``kind``, not true/false, and a finite
    double (``json`` reads ``Infinity`` and long integers exactly)."""
    return (isinstance(v, kind) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


class NodalBubblesError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(NodalBubblesError, ValueError):
    """A scalar or vector argument violates a precondition (e.g. eps <= 0)."""


class ConfigurationError(NodalBubblesError, ValueError):
    """A run configuration or request is malformed (e.g. empty sample window)."""


class DomainError(NodalBubblesError, ValueError):
    """A point lies outside the geometric domain where a kernel is defined."""


class SingularityError(NodalBubblesError, ValueError):
    """Evaluation requested exactly on a kernel singularity (x == y)."""


class QuadratureError(NodalBubblesError, RuntimeError):
    """Numerical quadrature failed to reach the requested tolerance."""


class SearchError(NodalBubblesError, RuntimeError):
    """A grid/parameter search found no admissible candidate."""


class ResolutionError(NodalBubblesError, RuntimeError):
    """A grid is too coarse to resolve a requested feature.

    Attributes
    ----------
    required_nz, required_nr : int or None
        Minimal grid sizes that would satisfy the resolution guard, when the
        guard can name them.
    """

    def __init__(self, message: str, required_nz: int | None = None,
                 required_nr: int | None = None):
        super().__init__(message)
        self.required_nz = required_nz
        self.required_nr = required_nr


class SolverDivergenceError(NodalBubblesError, RuntimeError):
    """An iterative solver left the admissible set or hit its iteration cap.

    Attributes
    ----------
    trace : list
        Per-iteration records accumulated before the failure (may be empty).
    """

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
