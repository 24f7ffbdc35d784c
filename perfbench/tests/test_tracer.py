"""Tests of the benchmark's span tracer and of the layer counters built on it.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import nodalbubbles as nb  # noqa: E402
from layers import GridWatch, aggregate, all_targets  # noqa: E402
from tracer import Tracer, self_times, under  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    tr = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tr.begin("root")
    a = tr.begin("a")
    a1 = tr.begin("a1")
    tr.finish(a1)
    tr.finish(a)
    b = tr.begin("b")
    tr.finish(b)
    tr.finish(root)
    s = tr.arrays()
    assert list(s["parent"]) == [-1, 0, 1, 0]
    assert list(s["self_s"]) == [3.0, 2.0, 1.0, 4.0]
    assert s["self_s"].sum() == s["end"][root] - s["start"][root]


def test_self_times_sum_to_root_on_random_trees():
    rng = random.Random(7)
    t = [0.0]

    def clock():
        t[0] += rng.uniform(0.0, 1.0)
        return t[0]

    tr = Tracer(clock=clock)
    root = tr.begin("root")
    open_spans = [root]
    for _ in range(2000):
        if len(open_spans) > 1 and rng.random() < 0.5:
            tr.finish(open_spans.pop())
        else:
            open_spans.append(tr.begin(f"s{rng.randrange(5)}"))
    while open_spans:
        tr.finish(open_spans.pop())
    s = tr.arrays()
    assert np.all(s["self_s"] >= 0.0)
    root_s = s["end"][root] - s["start"][root]
    assert s["self_s"].sum() == pytest.approx(root_s, rel=1e-12)
    # Recomputing from the columns gives the same answer.
    assert np.array_equal(self_times(s["parent"], s["end"] - s["start"]),
                          s["self_s"])


def test_under_marks_strict_descendants():
    parent = np.array([-1, 0, 1, 0, 3])
    flag = np.array([False, True, False, False, False])
    assert list(under(parent, flag)) == [False, False, True, False, False]


def test_span_records_a_raise():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.span("boom"):
            raise ValueError("x")
    assert bool(tr.arrays()["raised"][0])


def _namespaces():
    mods = [m for n, m in sys.modules.items()
            if n == "nodalbubbles" or n.startswith("nodalbubbles.")]
    return mods + [nb.ProjectedBubbleExact]


def test_rebinding_covers_internal_callers_and_restores_everything():
    import nodalbubbles.cli  # noqa: F401  (its namespace must be covered too)
    from nodalbubbles import green_domain, reduced_energy

    before = {(id(ns), k): v for ns in _namespaces()
              for k, v in list(vars(ns).items())}
    original_g = green_domain.axis_g
    tr = Tracer()
    with tr.installed(all_targets(GridWatch())):
        assert reduced_energy.axis_g is not original_g
        assert reduced_energy.axis_g is green_domain.axis_g is nb.axis_g
        assert nb.ProjectedBubbleExact.u.__wrapped__ is not None
        d = nb.BallDomain.unit(3)
        cfg = nb.mu_embed(1.0, 1.0, 1.0, nb.base_spacing_points(0.0, 0.06))
        nb.psi_tilde(cfg, nb.AxisKernels.for_ball(d))
    names = [tr.names[i] for i in tr.arrays()["name_id"]]
    assert names[:2] == ["reduced_energy.psi_tilde", "reduced_energy.psi_k"]
    assert names.count("green_domain.axis_g") == 6
    after = {(id(ns), k): v for ns in _namespaces()
             for k, v in list(vars(ns).items())}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_newton_counts_of_the_canonical_solve():
    d = nb.BallDomain.unit(3)
    init = nb.mu_embed(1.0, 1.0, 1.0, nb.base_spacing_points(0.0, 0.06))
    tr, watch = Tracer(), GridWatch()
    with tr.installed(all_targets(watch)):
        nb.solve_saddle(d, None, init)
    raw = aggregate(tr, watch)
    assert raw["saddle_solver.hessian.calls"] == 11
    assert raw["newton.iterations"] == 10
    assert raw["newton.backtracks"] == 2
    assert raw["newton.failed"] == 0
    assert raw["hessian.grad_calls"] == 11 * 32
    names = np.array(tr.names)[tr.arrays()["name_id"]]
    assert int(np.sum(names == "green_domain.axis_g")) == 4452


def test_failed_solve_is_counted():
    d = nb.BallDomain.unit(3)
    init = nb.mu_embed(1.0, 1.0, 1.0, nb.base_spacing_points(0.0, 0.06))
    tr, watch = Tracer(), GridWatch()
    with tr.installed(all_targets(watch)):
        with pytest.raises(nb.SolverDivergenceError):
            nb.solve_saddle(d, None, init, max_iter=1)
    raw = aggregate(tr, watch)
    assert raw["newton.failed"] == 1
    assert raw["newton.iterations"] == 1
