"""The package surface the benchmark uses exists and accepts its calls.

``perfbench/layers.py`` lists its targets as ``module.attr`` or
``module.Class.method`` strings; a renamed or deleted library function would
otherwise surface only when a ``--trace 1`` benchmark run tries to wrap it.
Its ``GridWatch`` also reads a grid's private factor state, checked here on
a real grid.  ``perfbench/workloads.py`` calls the package as ``nb.<name>``,
directly or through ``p.op(label, nb.<name>, ...)``; every such call's shape
(positional count and keyword names) must bind to the current signature.
"""

import ast
import importlib
import inspect
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
    # of what that set-up stored (the inverses of the two mirror blocks of
    # C, each |Γ|/2 square, and the pivots).
    layers = load_layers(monkeypatch)
    from nodalbubbles import AxisymGrid, BallDomain, Field, solve_poisson

    grid = AxisymGrid.for_ball(BallDomain.unit(3), nz=65, nr=33)
    watch = layers.GridWatch()
    assert watch.tag((grid,)) == 1
    solve_poisson(grid, Field(grid, np.ones((grid.nz, grid.nr))))
    assert watch.tag((grid,)) == 0
    gamma = np.count_nonzero(grid.boundary[1:-1, :-1])
    assert gamma % 2 == 0
    assert watch.lu_nnz() == (2 * (gamma // 2) ** 2
                              + (grid.nz - 2) * (grid.nr - 1))


def package_calls(path):
    """(dotted name, positional count, keyword names, line) of every call of
    an ``nb.<name>`` in a perfbench module, unwrapping ``p.op``."""
    def nb_name(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "nb" and parts:
            return ".".join(reversed(parts))
        return None

    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func, args, keywords = node.func, node.args, node.keywords
        if (isinstance(func, ast.Attribute) and func.attr == "op"
                and len(args) >= 2):
            # p.op(label, fn, *args, known=(), **kwargs) calls fn(*args, **kwargs)
            func, args = args[1], args[2:]
            keywords = [kw for kw in keywords if kw.arg != "known"]
        name = nb_name(func)
        if name is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in args), node.lineno
        assert all(kw.arg for kw in keywords), node.lineno
        calls.append((name, len(args), [kw.arg for kw in keywords],
                      node.lineno))
    return calls


def test_workload_calls_bind_to_the_package():
    import nodalbubbles

    calls = package_calls(PERFBENCH / "workloads.py")
    names = {c[0] for c in calls}
    assert {"solve_saddle", "coercivity_scan", "expansion_gap",
            "AxisymGrid.for_ball"} <= names
    broken = []
    for name, n_args, keywords, line in calls:
        obj = nodalbubbles
        try:
            for part in name.split("."):
                obj = getattr(obj, part)
            inspect.signature(obj).bind(*[None] * n_args,
                                        **dict.fromkeys(keywords))
        except (AttributeError, TypeError) as exc:
            broken.append(f"workloads.py:{line} nb.{name}: {exc}")
    assert broken == []
