"""Seeded rational evaluation points and the pole-retry protocol.

Equality of multivariate rational expressions is tested by exact evaluation
at reproducible random points.  Candidate values are rationals ``a/b`` with
``2 <= a, b <= 97`` and ``a != b`` drawn from a deterministic stream seeded
by a 64-bit integer; whenever an evaluation runs into a pole the whole
point is rejected and the next candidate is drawn, up to a hard cap.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

from .chars import PoleAtPoint, var_name
from .rational import rational

MAX_POINT_ATTEMPTS = 100


class PointExhausted(RuntimeError):
    """No pole-free point was found within the attempt budget."""


class PointAssignment:
    """A map from variable ids to nonzero exact rationals.

    Each value is stored with its integer pair, from which monomial and factor
    values are read as unreduced integer pairs.
    """

    __slots__ = ("_values", "_pairs")

    def __init__(self, values):
        vals = dict(values)
        for v, q in vals.items():
            if not q:
                raise ValueError(f"variable {var_name(v)} assigned zero")
        self._values = vals
        self._pairs = {v: (q.numerator, q.denominator) for v, q in vals.items()}

    def value(self, var):
        try:
            return self._values[var]
        except KeyError:
            raise KeyError(f"no value assigned to {var_name(var)}") from None

    def items(self):
        return sorted(self._values.items())

    def monomial_pair(self, monomial):
        """``m(p)`` as an unreduced integer pair ``(n, d)`` with ``d > 0``."""
        n = d = 1
        for v, e in monomial.exponents():
            a, b = self._pairs[v]
            if e > 0:
                n, d = n * a**e, d * b**e
            else:
                n, d = n * b**-e, d * a**-e
        return (n, d) if d > 0 else (-n, -d)

    def factor(self, monomial):
        """``1 - m(p)`` as an unreduced integer pair ``(d - n, d)``."""
        n, d = self.monomial_pair(monomial)
        return d - n, d

    def with_values(self, overrides) -> "PointAssignment":
        vals = dict(self._values)
        vals.update(overrides)
        return PointAssignment(vals)

    def power(self, k: int) -> "PointAssignment":
        """The point whose every value is this one's ``k``-th power."""
        return PointAssignment({v: q**k for v, q in self._values.items()})

    def linearized(self) -> "LinearPoint":
        """The same ``(s, v)`` values, read as a cohomological point."""
        return LinearPoint(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{var_name(v)}={q}" for v, q in self.items())
        return f"point({inner})"


_LINEAR_KIND = {"t": "s", "w": "v"}


class LinearPoint(PointAssignment):
    """A point of equivariant cohomology at which K-theoretic forms are read.

    The value of ``t^mu`` is ``1 + mu . s``, with ``t_i`` read as ``s_i`` and
    ``w(i, alpha)`` as ``v(i, alpha)``.  A factor ``1 - t^-mu`` then takes
    the value ``mu . s``, so a factored form ``k_euler(-T)`` evaluates to the
    cohomological residue ``1 / e(T)``, with the same zeros and poles.
    """

    __slots__ = ()

    def monomial_pair(self, monomial):
        value = rational(1)
        for v, e in monomial.exponents():
            value += e * self._values[(_LINEAR_KIND[v[0]],) + v[1:]]
        return value.numerator, value.denominator


def rational_stream(seed: int) -> Iterator:
    """Deterministic stream of candidate values ``a/b``, ``2<=a,b<=97``, ``a!=b``."""
    rng = random.Random(seed)
    while True:
        a = rng.randrange(2, 98)
        b = rng.randrange(2, 98)
        if a != b:
            yield rational(a, b)


def draw_point(variables: Iterable, stream: Iterator) -> PointAssignment:
    """Assign the next stream values to the variables in sorted order."""
    return PointAssignment({v: next(stream) for v in sorted(variables)})


def seeded_point(variables: Iterable, seed: int) -> PointAssignment:
    return draw_point(variables, rational_stream(seed))


def retry_points(variables: Iterable, stream: Iterator, compute: Callable):
    """Run ``compute`` at fresh points until it stops raising ``PoleAtPoint``.

    Returns the ``(point, result)`` pair of the first success.  Raises
    :class:`PointExhausted` after ``MAX_POINT_ATTEMPTS`` rejected points.
    This is the one place where a pole is caught.
    """
    variables = sorted(variables)
    for _ in range(MAX_POINT_ATTEMPTS):
        point = draw_point(variables, stream)
        try:
            return point, compute(point)
        except PoleAtPoint:
            continue
    raise PointExhausted(
        f"no pole-free point among {MAX_POINT_ATTEMPTS} candidates for {[var_name(v) for v in variables]}"
    )
