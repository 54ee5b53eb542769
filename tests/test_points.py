"""Seeded point streams, memoized evaluation and the retry protocol."""

import ast
import math
import pathlib

import pytest

import quotloc
from quotloc import points
from quotloc.chars import Monomial, PoleAtPoint, T1, T2, pair_value, w_var
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


def test_monomial_pair_and_factor_memo():
    p = PointAssignment({T1: rational(2), T2: rational(3)})
    assert pair_value(*p.monomial_pair(Monomial({T1: 2, T2: -1}))) == rational(4, 3)
    assert p.monomial_pair(Monomial.one()) == (1, 1)
    # unreduced pairs keep d > 0 at negative coordinates
    q = PointAssignment({T1: rational(-2, 3), T2: rational(-5), W11: rational(4, 7)})
    for exps in ({T1: 1}, {T1: -1}, {T1: -3, T2: 1}, {T2: -1, W11: 2}, {T1: -2, T2: -1, W11: -1}):
        m = Monomial(exps)
        n, d = q.monomial_pair(m)
        want = math.prod((q.value(v) ** e for v, e in m.exponents()), start=rational(1))
        assert d > 0 and rational(n, d) == want
        assert rational(*q.factor(m)) == 1 - want
    assert q.monomial_pair(Monomial({T1: -1, T2: -1})) == (3, 10)


def test_linear_point_monomial_pair():
    p = PointAssignment({S1: rational(3), S2: rational(-5, 2), V11: rational(1, 7)}).linearized()
    m = Monomial({T1: 2, T2: 1, W11: -1})
    want = 1 + 2 * rational(3) - rational(5, 2) - rational(1, 7)
    assert pair_value(*p.monomial_pair(m)) == want
    assert rational(*p.factor(m)) == 1 - want
    assert pair_value(*p.monomial_pair(Monomial.one())) == 1


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


def test_retry_exhaustion(monkeypatch):
    """The attempt budget is ``MAX_POINT_ATTEMPTS``, read at call time."""
    monkeypatch.setattr(points, "MAX_POINT_ATTEMPTS", 7)
    draws = []

    def always_pole(point):
        draws.append(point)
        raise PoleAtPoint("never works")

    with pytest.raises(PointExhausted, match="among 7 candidates"):
        retry_points([T1], rational_stream(5), always_pole)
    assert len(draws) == 7


def _pole_sites():
    """``(kind, module.function)`` for every ``except PoleAtPoint`` and
    ``raise PoleAtPoint`` in the package source."""
    sites = []
    for path in sorted(pathlib.Path(quotloc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)  # outermost function wins
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kind, names = "except", ast.walk(node.type)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                kind, names = "raise", ast.walk(node.exc)
            else:
                continue
            if any(isinstance(n, ast.Name) and n.id == "PoleAtPoint" for n in names):
                sites.append((kind, f"{path.stem}.{owner.get(node, '<module>')}"))
    return sites


def test_one_pole_rule():
    """A pole is a zero denominator: ``pair_value`` is the only place that
    raises ``PoleAtPoint``, and ``retry_points`` the only place that catches it."""
    assert sorted(_pole_sites()) == [
        ("except", "points.retry_points"),
        ("raise", "chars.pair_value"),
    ]
