"""Seeded point streams, memoized evaluation and the retry protocol."""

import pytest

from quotloc.chars import Monomial, PoleAtPoint, T1, T2
from quotloc.points import (
    PointAssignment,
    PointExhausted,
    draw_point,
    rational_stream,
    retry_points,
)
from quotloc.rational import rational


def test_stream_is_deterministic():
    a = [next(rational_stream(99)) for _ in range(20)]
    b = [next(rational_stream(99)) for _ in range(20)]
    assert a == b


def test_stream_values_in_range():
    for q in (next(rational_stream(s)) for s in range(50)):
        assert q != 1 and q > 0
        assert 2 <= q.numerator <= 97 and 2 <= q.denominator <= 97


def test_draw_point_assigns_sorted_variables():
    probe = rational_stream(3)
    expected = [next(probe), next(probe)]
    p = draw_point([T2, T1], rational_stream(3))
    assert p.value(T1) == expected[0]
    assert p.value(T2) == expected[1]


def test_monomial_value_and_memo():
    p = PointAssignment({T1: rational(2), T2: rational(3)})
    m = Monomial({T1: 2, T2: -1})
    assert p.monomial_value(m) == rational(4, 3)
    assert p.monomial_value(m) == rational(4, 3)  # memo hit
    assert p.monomial_value(Monomial.one()) == 1


def test_zero_assignment_rejected():
    with pytest.raises(ValueError):
        PointAssignment({T1: rational(0)})


def test_missing_variable():
    p = PointAssignment({T1: rational(2)})
    with pytest.raises(KeyError):
        p.value(T2)


def test_retry_skips_poles():
    calls = []

    def compute(point):
        calls.append(point.value(T1))
        if len(calls) < 3:
            raise PoleAtPoint("try again")
        return point.value(T1)

    point, result = retry_points([T1], rational_stream(5), compute)
    assert len(calls) == 3
    assert result == point.value(T1)


def test_retry_exhaustion():
    def always_pole(_):
        raise PoleAtPoint("never works")

    with pytest.raises(PointExhausted):
        retry_points([T1], rational_stream(5), always_pole, attempts=7)
