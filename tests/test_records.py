"""Equality and hashing of the package's dataclass records.

Value records hold numbers and tuples, so the dataclass's generated ``==``
and ``hash`` compare them by value whatever sequence type built them.
Records that hold arrays (a projected family's columns, a grid field, a
grid factor) compare by identity.  No record's ``==``, ``!=`` or ``hash``
raises.
"""

import dataclasses

import numpy as np
import pytest

from nodalbubbles import (
    AxisKernels,
    AxisSection,
    AxisymGrid,
    BallDomain,
    BoundsReport,
    BubbleParams,
    Configuration,
    ConstantsTable,
    Field,
    ProjectedBubbleExact,
    compute_constants,
    projected_bubbles_of_config,
)

_CONSTANTS3 = dataclasses.astuple(compute_constants(3))[1:]


def _grid_factor():
    grid = AxisymGrid.for_ball(BallDomain.unit(3), nz=9, nr=5)
    grid._factor()
    return grid._lu


# Each value record built from one sequence type: numpy.array, list or tuple.
VALUE_RECORDS = {
    "BallDomain": lambda seq: BallDomain(N=3, center=seq([0.2, 0.0, -0.1]),
                                         radius=2.0),
    "AxisSection": lambda seq: AxisSection(*seq([-0.5, 0.9])),
    "AxisKernels": lambda seq: AxisKernels.for_ball(
        BallDomain(N=3, center=seq([0.3, 0.0, 0.0]), radius=1.0)),
    "Configuration": lambda seq: Configuration(
        k=2, signs=seq([1, -1]), Lambda=seq([1.0, 2.0]), t=seq([-0.3, 0.4])),
    "BubbleParams": lambda seq: BubbleParams(N=3, eps=0.1, lam=1.0,
                                             xi=seq([0.1, 0.0, 0.0])),
    "BoundsReport": lambda seq: BoundsReport(*seq([2.0, -1.0, 3.0, 0.1, 0.2])),
    "ConstantsTable": lambda seq: ConstantsTable(3, *seq(list(_CONSTANTS3))),
}

IDENTITY_RECORDS = {
    "ProjectedBubbleExact": lambda: ProjectedBubbleExact(N=3, R=1.0, m=0.1,
                                                         t=0.2),
    "ProjectedBubbleExact-family": lambda: projected_bubbles_of_config(
        BallDomain.unit(3),
        Configuration(k=2, signs=(1, -1), Lambda=(1.0, 2.0), t=(-0.3, 0.4)),
        compute_constants(3), 0.1),
    "Field": lambda: Field(AxisymGrid.for_ball(BallDomain.unit(3), nz=9, nr=5),
                           np.zeros((9, 5))),
    "_GridFactor": _grid_factor,
}


@pytest.mark.parametrize("name", [*VALUE_RECORDS, *IDENTITY_RECORDS])
def test_record_equality(name):
    if name in VALUE_RECORDS:
        a, b, c = (VALUE_RECORDS[name](seq) for seq in (np.array, list, tuple))
        assert a == b == c and not (a != b or b != c)
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1
    else:
        a, b = IDENTITY_RECORDS[name](), IDENTITY_RECORDS[name]()
        assert a == a and not a != a and hash(a) == hash(a)
        assert a != b and not a == b
        assert len({a, b}) == 2
    assert a != name and not a == name


@pytest.mark.parametrize("seq", [np.array, list, tuple])
def test_coordinates_are_tuples_of_floats(seq):
    center = BallDomain(N=3, center=seq([1, 0, 0]), radius=1.0).center
    xi = BubbleParams(N=3, eps=0.1, lam=1.0, xi=seq([1, 0, 0])).xi
    for v in (center, xi):
        assert type(v) is tuple and [type(x) for x in v] == [float] * 3
        assert v == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("seq", [np.array, list, tuple])
def test_numbers_are_python_numbers(seq):
    # Counts are stored as int and reals as float, numpy scalars included,
    # so the records compare and hash equal to the ones built from floats.
    ball = BallDomain(N=seq([3])[0], center=np.zeros(3), radius=seq([2])[0])
    cfg = Configuration(k=seq([2])[0], signs=seq([1, -1]),
                        Lambda=seq([1, 2]), t=seq([-1, 1]))
    numbers = (ball.N, ball.radius, cfg.k, *cfg.signs, *cfg.Lambda, *cfg.t)
    assert [type(v) for v in numbers] == [int, float] + [int] * 3 + [float] * 4
    for record, ref in (
            (ball, BallDomain(N=3, center=(0.0,) * 3, radius=2.0)),
            (cfg, Configuration(k=2, signs=(1, -1), Lambda=(1.0, 2.0),
                                t=(-1.0, 1.0)))):
        assert record == ref and hash(record) == hash(ref)
