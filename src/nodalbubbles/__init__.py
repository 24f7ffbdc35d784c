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

Importing the package loads none of its modules (PEP 562).  A submodule
attribute (``nodalbubbles.cli``, ``nodalbubbles.green_domain``, ...) imports
that submodule alone; the first other attribute imports the six library
modules and binds every exported name here, as star imports would, so later
lookups are plain global reads.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("bubble_core", "errors", "green_domain", "pde_harness",
            "reduced_energy", "saddle_solver")


def __getattr__(name):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    g = globals()
    if "__all__" not in g:
        exported = ["__version__"]
        for module in _MODULES:
            mod = importlib.import_module(f"{__name__}.{module}")
            g.update((n, getattr(mod, n)) for n in mod.__all__)
            exported += mod.__all__
        g["__all__"] = exported
    try:
        return g[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return list(__getattr__("__all__"))
