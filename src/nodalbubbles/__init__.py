"""Nodal multi-bubble toolkit for slightly subcritical problems on balls.

The library builds, checks, and verifies the finite-dimensional reduction of

    -Δu = |u|^{2*-2-ε} u  in Ω,   u = 0  on ∂Ω,   2* = 2N/(N-2),

on ball domains: standard-bubble constants (:mod:`~nodalbubbles.bubble_core`),
Green/Robin kernels with hypothesis checks (:mod:`~nodalbubbles.green_domain`),
the reduced interaction energies (:mod:`~nodalbubbles.reduced_energy`), the
four-bubble max-min saddle search (:mod:`~nodalbubbles.saddle_solver`), a PDE
verification harness (:mod:`~nodalbubbles.pde_harness`), and a CLI front end
(:mod:`~nodalbubbles.cli`).

The package re-exports each library module's ``__all__``, which is the one
list of that module's public names; ``__all__`` here is their concatenation
in module order, after ``__version__``.
"""

from . import (bubble_core, errors, green_domain, pde_harness, reduced_energy,
               saddle_solver)
from .bubble_core import *
from .errors import *
from .green_domain import *
from .pde_harness import *
from .reduced_energy import *
from .saddle_solver import *

__version__ = "0.1.0"

__all__ = ["__version__", *bubble_core.__all__, *errors.__all__,
           *green_domain.__all__, *pde_harness.__all__,
           *reduced_energy.__all__, *saddle_solver.__all__]
