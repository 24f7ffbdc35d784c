"""The names the benchmark's traced pass wraps exist in the package.

``perfbench/layers.py`` lists its targets as ``module.attr`` or
``module.Class.method`` strings; a renamed or deleted library function would
otherwise surface only when a ``--trace 1`` benchmark run tries to wrap it.
Its ``GridWatch`` also reads a grid's private factor state, checked here on
a real grid.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("layers")


def test_every_layer_target_resolves(monkeypatch):
    layers = load_layers(monkeypatch)
    targets = layers.all_targets(layers.GridWatch())
    assert targets
    missing = []
    for t in targets:
        owner = importlib.import_module(f"nodalbubbles.{t.module}")
        if "." in t.attr:
            # The tracer wraps the method found in the class's own dict.
            cls_name, meth = t.attr.split(".")
            obj = vars(getattr(owner, cls_name, object)).get(meth)
        else:
            obj = getattr(owner, t.attr, None)
        if not callable(obj):
            missing.append(t.name)
    assert missing == []


def test_grid_watch_reads_the_factor(monkeypatch):
    # GridWatch tags a solve that sets up a fresh grid and reports the size
    # of what that set-up stored (C^{-1} and the pivots).
    layers = load_layers(monkeypatch)
    from nodalbubbles import AxisymGrid, BallDomain, Field, solve_poisson

    grid = AxisymGrid.for_ball(BallDomain.unit(3), nz=65, nr=33)
    watch = layers.GridWatch()
    assert watch.tag((grid,)) == 1
    solve_poisson(grid, Field(grid, np.ones((grid.nz, grid.nr))))
    assert watch.tag((grid,)) == 0
    gamma = np.count_nonzero(grid.boundary[1:-1, :-1])
    assert watch.lu_nnz() == gamma ** 2 + (grid.nz - 2) * (grid.nr - 1)
