"""Exception taxonomy shared by all modules.

The command-line front end maps these onto stable exit codes; library users
can catch them individually.  Everything derives from ``NodalBubblesError``
so a single ``except`` clause can fence off the whole package.

It also holds the rules for scalar inputs, by the standard library alone:
a JSON number of the run configuration is :func:`_is_number`.  A library
argument that is a **count or dimension** is a Python or numpy integer
(not ``bool``) at least its minimum, used and stored as ``int``
(:func:`_require_int`); a **scale** is a Python or numpy integer or float
(not ``bool``) that is finite and > 0, used and stored as ``float``, and a
**position** is one without the sign bound (:func:`_require_real`).
"""

from __future__ import annotations

import math
import operator
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


def _require_int(name: str, v, least: int, error=ParameterError) -> int:
    """The count or dimension ``name`` = ``v`` as an ``int``, or ``error``."""
    try:
        n = None if isinstance(v, bool) else operator.index(v)
    except TypeError:                    # a float, a string, an array
        n = None
    if n is None or n < least:
        raise error(f"{name} must be an integer >= {least}, got {v!r}")
    return n


def _require_real(name: str, v, positive: bool = True) -> float:
    """The scale (or, not ``positive``, the position) ``name`` = ``v`` as a
    ``float``, or :class:`ParameterError`."""
    kind = getattr(getattr(v, "dtype", None), "kind", "")    # numpy's
    try:
        real = isinstance(v, (int, float)) or kind in ("i", "u", "f")
        x = float(v) if real and not isinstance(v, bool) else math.nan
    except (TypeError, OverflowError):   # an array; an int past a double
        x = math.nan
    if not (math.isfinite(x) and (x > 0 or not positive)):
        raise ParameterError(f"{name} must be a {'positive ' * positive}"
                             f"finite real, got {v!r}")
    return x
