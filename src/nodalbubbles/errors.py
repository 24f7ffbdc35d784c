"""Exception taxonomy shared by all modules.

The command-line front end maps these onto stable exit codes; library users
can catch them individually.  Everything derives from ``NodalBubblesError``
so a single ``except`` clause can fence off the whole package.

It also holds every input rule, importing the standard library alone, for
the library and the run configuration alike.  A **count or dimension** is a
Python or numpy integer (not ``bool``) at least its minimum and within a
double's range, used and stored as ``int`` (:func:`_require_int`); a
**scale** is a Python or numpy integer or float (not ``bool``) that is
finite and > 0, used and stored as ``float``, and a **position** is one
without the sign bound (:func:`_require_real`).  A **sequence** of them is
a list, a tuple or a 1-D numpy array, never a string or a scalar
(:func:`_require_sequence`, :func:`_require_reals`).  An **array** of them
is an integer or float scalar, array or nesting, never ``bool``, complex,
ragged or of strings, used as a float ndarray (:func:`_require_array`; it
imports numpy inside itself, so this module loads none).  **Arrays taken
together** (a kernel's points x and y, the axis coordinates t and s, the
half-section points z and r, a projection's m and t, a bubble's m and d2,
a spacing's t0 and r0) must broadcast against each other
(:func:`_require_broadcast`, which reads their shapes alone).
"""

from __future__ import annotations

import math
import operator
import sys

__all__ = ["NodalBubblesError", "ParameterError", "ConfigurationError",
           "DomainError", "SingularityError", "QuadratureError",
           "SearchError", "ResolutionError", "SolverDivergenceError"]


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
    if n is None or not least <= n <= sys.float_info.max:
        raise error(f"expected an integer {name} >= {least} that fits a "
                    f"double, got {v!r}")
    return n


def _require_real(name: str, v, positive: bool = True,
                  error=ParameterError) -> float:
    """The scale (or, not ``positive``, the position) ``name`` = ``v`` as a
    ``float``, or ``error``."""
    kind = getattr(getattr(v, "dtype", None), "kind", "")    # numpy's
    try:
        real = isinstance(v, (int, float)) or kind in ("i", "u", "f")
        x = float(v) if real and not isinstance(v, bool) else math.nan
    except (TypeError, OverflowError):   # an array; an int past a double
        x = math.nan
    if not (math.isfinite(x) and (x > 0 or not positive)):
        raise error(f"{name} must be a {'positive ' * positive}"
                    f"finite real, got {v!r}")
    return x


def _require_sequence(name: str, values, n: int | None = None,
                      error=ParameterError):
    """``values`` itself if it is a list, a tuple or a 1-D numpy array, of
    exactly ``n`` entries when ``n`` is given; else ``error``."""
    if not (isinstance(values, (list, tuple))
            or getattr(values, "ndim", None) == 1):
        raise error(f"{name} must be a list, tuple or 1-D array, "
                    f"got {values!r}")
    if n is not None and len(values) != n:
        raise error(f"{name} must have {n} entries, got {len(values)}")
    return values


def _require_reals(name: str, values, n: int | None = None,
                   positive: bool = True, error=ParameterError) -> tuple:
    """The sequence ``name`` = ``values`` of scales (or, not ``positive``,
    of positions) as a tuple of floats, or ``error`` naming the entry or
    the length at fault."""
    return tuple(_require_real(f"{name}[{i}]", v, positive, error)
                 for i, v in enumerate(_require_sequence(name, values, n,
                                                         error)))


def _require_array(name: str, values, positive: bool = False,
                   error=ParameterError):
    """The array ``name`` = ``values`` of positions (or, ``positive``, of
    scales) as a float ndarray, a float64 array as itself; else ``error``."""
    import numpy as np
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):      # ragged
        a = np.asarray(None)
    if not (a.dtype.kind in "iuf" and np.all(
            (0 < a) & (a < np.inf) if positive else np.isfinite(a))):
        raise error(f"{name} must be an array of {'positive ' * positive}"
                    f"finite reals, got {values!r}")
    return a.astype(float, copy=False)


def _require_broadcast(**arrays) -> None:
    """Nothing if the named arrays broadcast together, read from their
    shapes alone; else :class:`ParameterError` naming each and its shape."""
    import numpy as np
    shapes = {name: np.shape(a) for name, a in arrays.items()}
    try:
        np.broadcast_shapes(*shapes.values())
    except ValueError:
        raise ParameterError("cannot broadcast together: " + ", ".join(
            f"{name} of shape {s}" for name, s in shapes.items())) from None
