"""Seeded point streams, memoized evaluation and the retry protocol."""

import pytest

from quotloc.chars import Monomial, PoleAtPoint, T1, T2, w_var
from quotloc.points import (
    PointAssignment,
    PointExhausted,
    draw_point,
    rational_stream,
    retry_points,
)
from quotloc.rational import rational

W11 = w_var(1, 1)
S1, S2, V11 = ("s", 1), ("s", 2), ("v", 1, 1)


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
    assert p.monomial_pair(Monomial.one()) == (1, 1)
    # unreduced pairs keep d > 0 at negative coordinates
    q = PointAssignment({T1: rational(-2, 3), T2: rational(-5), W11: rational(4, 7)})
    for exps in ({T1: 1}, {T1: -1}, {T1: -3, T2: 1}, {T2: -1, W11: 2}, {T1: -2, T2: -1, W11: -1}):
        m = Monomial(exps)
        n, d = q.monomial_pair(m)
        assert d > 0 and rational(n, d) == q.monomial_value(m)
        assert rational(*q.factor(m)) == 1 - q.monomial_value(m)
        assert q.factor(m) is q.factor(m)  # memo hit
    assert q.monomial_pair(Monomial({T1: -1, T2: -1})) == (3, 10)


def test_linear_point_monomial_value():
    p = PointAssignment({S1: rational(3), S2: rational(-5, 2), V11: rational(1, 7)}).linearized()
    m = Monomial({T1: 2, T2: 1, W11: -1})
    assert p.monomial_value(m) == 1 + 2 * rational(3) - rational(5, 2) - rational(1, 7)
    assert rational(*p.factor(m)) == 1 - p.monomial_value(m)
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
