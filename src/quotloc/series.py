"""Truncated q-series over exact scalars and the partition functions.

Coefficients of the localized series are exact rational numbers obtained by
evaluating every fixed point's localization weight at a point assignment;
the closed forms are plethystic exponentials of one explicit single-box
term.  Equality of the two is the central claim the package verifies, and
it holds coefficient by coefficient as exact rational identities.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable

from .chars import (
    T1,
    T2,
    FactoredForm,
    Monomial,
    PoleAtPoint,
    k_euler,
    t_var,
    u_var,
)
from .points import PointAssignment
from .rational import ONE as RAT_ONE, ZERO as RAT_ZERO, rational
from .vertex import FixedPoint, Ranks, vertex_block


class QSeries:
    """A power series in ``q`` truncated at a fixed order, with exact
    scalar coefficients (rationals, or any exact field element)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable):
        self._coeffs = tuple(coeffs)
        if not self._coeffs:
            raise ValueError("a truncated series needs at least the q^0 term")

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls((RAT_ONE,) + (RAT_ZERO,) * order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int):
        return self._coeffs[n]

    def _check(self, other: "QSeries"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        return QSeries(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        return QSeries(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        n = self.order
        out = [RAT_ZERO] * (n + 1)
        for i, a in enumerate(self._coeffs):
            for j in range(0, n - i + 1):
                b = other._coeffs[j]
                out[i + j] = out[i + j] + a * b
        return QSeries(out)

    def exp(self) -> "QSeries":
        """Series exponential; requires vanishing constant term.

        Uses the derivative recurrence ``n e_n = sum_k k a_k e_(n-k)``.
        """
        if self._coeffs[0]:
            raise ValueError("exp needs a vanishing constant term")
        n = self.order
        e = [RAT_ONE] + [RAT_ZERO] * n
        for m in range(1, n + 1):
            acc = RAT_ZERO
            for k in range(1, m + 1):
                a = self._coeffs[k]
                if a:
                    acc = acc + k * a * e[m - k]
            e[m] = acc / m
        return QSeries(e)

    def scale_q(self, factor) -> "QSeries":
        """Substitute ``q -> factor * q``: coefficient ``n`` picks ``factor^n``."""
        out = []
        power = RAT_ONE
        for c in self._coeffs:
            out.append(c * power)
            power = power * factor
        return QSeries(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        ) and self.order == other.order

    __hash__ = None

    def __repr__(self) -> str:
        bits = [f"{c}*q^{i}" for i, c in enumerate(self._coeffs)]
        return " + ".join(bits) + f" + O(q^{self.order + 1})"


def plethystic_exp(f_eval: Callable[[int], object], order: int) -> QSeries:
    """Plethystic exponential ``exp(sum_k q^k f(vars^k) / k)`` truncated at
    ``order``.

    ``f_eval(k)`` must return the exact value of the single-box term with
    every variable raised to the ``k``-th power.
    """
    log_coeffs = [RAT_ZERO]
    for k in range(1, order + 1):
        log_coeffs.append(f_eval(k) / rational(k))
    return QSeries(log_coeffs).exp()


def binom_series(exponent, order: int) -> QSeries:
    """The binomial series ``(1/(1-q))^c``: coefficient of ``q^n`` is
    ``c (c+1) ... (c+n-1) / n!``."""
    c = exponent
    coeffs = [RAT_ONE]
    value = RAT_ONE
    for n in range(1, order + 1):
        value = value * (c + (n - 1)) / rational(n)
        coeffs.append(value)
    return QSeries(coeffs)


# ---------------------------------------------------------------------------
# localized series
# ---------------------------------------------------------------------------


class BlockTable:
    """A localized sum as a product of framing-pair blocks.

    A fixed point puts one state on each of ``slots`` framing slots (a length
    on the lines, a Young diagram on the plane; ``states(n)`` lists those of
    size ``n``).  Its tangent character is the sum of its blocks and the
    Euler operator is multiplicative, so its weight is the product over
    ordered slot pairs of ``block(a, b, state_a, state_b)``, which is ``None``
    for the zero class.  Block weights are built once per table.
    """

    def __init__(self, slots: int, order: int, states, block):
        self.slots, self.order, self.states, self.block = slots, order, states, block
        self.weights = {}

    def weight(self, *key):
        """The weight of block ``key = (a, b, s_a, s_b)``, or ``None``."""
        if key not in self.weights:
            self.weights[key] = self.block(*key)
        return self.weights[key]

    def fixed_point_weight(self, states: tuple):
        """The merged weight of one fixed point, or ``None`` for the zero class."""
        pairs = itertools.product(enumerate(states), repeat=2)
        blocks = [self.weight(a, b, s_a, s_b) for (a, s_a), (b, s_b) in pairs]
        return None if any(w is None for w in blocks) else math.prod(blocks[1:], start=blocks[0])

    def fold(self, value, combine, start):
        """Yield ``(states, size, acc)`` for every fixed point up to the order with no
        block of value ``None``; ``acc`` combines ``start`` with its block values.  Fixed
        points are enumerated slot by slot, each prefix carrying the combination of its
        blocks, so a ``None`` block prunes its branch.  ``value(key)`` is called once per
        block key per call."""
        values = {}
        stack = [((), 0, start)]  # (states of the first slots, their size, accumulation)
        while stack:
            states, size, prefix = stack.pop()
            k = len(states)
            for m in range(self.order - size + 1):
                for s in self.states(m):
                    keys = [(k, k, s, s)]
                    for j, s_j in enumerate(states):
                        keys += [(j, k, s_j, s), (k, j, s, s_j)]
                    for key in keys:
                        if key not in values:
                            values[key] = value(key)
                    blocks = [values[key] for key in keys]
                    if any(x is None for x in blocks):
                        continue
                    acc = functools.reduce(combine, blocks, prefix)
                    here = states + (s,)
                    if k + 1 < self.slots:
                        stack.append((here, size + m, acc))
                    else:
                        yield here, size + m, acc


def line_table(ranks: Ranks, order: int, weight) -> BlockTable:
    """The fixed-line sum as a block table: a slot's state is its length and
    block ``(a, b)`` has weight ``weight(vertex_block(...))``."""
    slots = ranks.slots()

    def block(a, b, m_a, m_b):
        lengths = [0] * len(slots)
        lengths[a], lengths[b] = m_a, m_b
        (i, alpha), (j, beta) = slots[a], slots[b]
        return weight(vertex_block(FixedPoint(ranks, tuple(lengths)), i, j, alpha, beta))

    return BlockTable(len(slots), order, lambda n: (n,), block)


def localized_forms(ranks: Ranks, order: int) -> BlockTable:
    """The localization weights ``k_euler(-T)`` up to degree ``order``;
    point-independent: build once, evaluate often."""
    return line_table(ranks, order, lambda block: k_euler(-block))


def _pair_product(x, y):
    return x[0] * y[0], x[1] * y[1]


def eval_forms(table: BlockTable, point: PointAssignment) -> QSeries:
    """Evaluate a block table at one point and sum each degree: a
    :meth:`BlockTable.fold` of block values by products.  Block values are
    unreduced integer pairs (:meth:`FactoredForm.eval_pair`), multiplied as
    plain integers and normalised once per fixed point.  A fixed point with
    a block that vanishes or has a pole here is evaluated whole, since one
    factor can sit in two blocks with opposite signs: so zeros and
    :class:`PoleAtPoint` are exactly those of the merged weights.
    """
    totals = [RAT_ZERO] * (table.order + 1)

    def value(key):  # None: zero class; (0, 1): vanishes or has a pole here
        w = table.weight(*key)
        try:
            return w if w is None else w.eval_pair(point)
        except PoleAtPoint:
            return 0, 1

    for states, size, (n, d) in table.fold(value, _pair_product, (1, 1)):
        totals[size] += rational(n, d) if n else table.fixed_point_weight(states).eval_point(point)
    return QSeries(totals)


def z_closed(ranks: Ranks, point: PointAssignment, order: int) -> QSeries:
    """The closed form: the plethystic exponential of
    ``q (1 - t1 t2)(1 - t1^r1 t2^r2) / ((1 - t1)(1 - t2))``."""
    t1 = point.value(t_var(1))
    t2 = point.value(t_var(2))

    def f(k: int):
        a, b = t1**k, t2**k
        return (1 - a * b) * closed_g(ranks, a, b)

    return plethystic_exp(f, order)


def closed_g(ranks: Ranks, a, b):
    """The single-box term without its ``(1 - t1 t2)`` factor,
    ``G = (1 - a^r1 b^r2) / ((1 - a)(1 - b))`` at ``t1 = a``, ``t2 = b``."""
    return (1 - a**ranks.r1 * b**ranks.r2) / ((1 - a) * (1 - b))


def z_rank1_product(point: PointAssignment, order: int) -> QSeries:
    """Rank-one series by the product formula: coefficient ``n`` is
    ``prod_(a=1..n) (1 - t1 t2^a)/(1 - t2^a)``."""
    t1 = point.value(t_var(1))
    t2 = point.value(t_var(2))
    coeffs = [RAT_ONE]
    value = RAT_ONE
    power = RAT_ONE
    for a in range(1, order + 1):
        power = power * t2
        den = 1 - power
        if not den:
            raise ZeroDivisionError("t2 is a root of unity")
        value = value * (1 - t1 * power) / den
        coeffs.append(value)
    return QSeries(coeffs)


# ---------------------------------------------------------------------------
# symmetrized (half-weight twisted) series
# ---------------------------------------------------------------------------


def half_weight_twist(ranks: Ranks) -> Monomial:
    """The square root of the determinant twist at degree one, written in
    the ``u`` variables: ``(t1^r1 t2^r2)^(-1/2) = u1^-r1 u2^-r2``.  Degree
    ``n`` takes its ``n``-th power, so the twisted series at ``p`` is
    ``eval_forms(localized_forms(ranks, order), twisted_point(p))`` with
    ``q`` scaled by this monomial's value at ``p``."""
    return Monomial([(u_var(1), -ranks.r1), (u_var(2), -ranks.r2)])


def twisted_point(point: PointAssignment) -> PointAssignment:
    """The point ``t_i = u_i^2`` of a ``(u, w)`` point, at which the
    localized weights take their half-weight values."""
    u1, u2 = point.value(u_var(1)), point.value(u_var(2))
    return point.with_values({T1: u1**2, T2: u2**2})


def zhat_closed(ranks: Ranks, point: PointAssignment, order: int) -> QSeries:
    """Closed form of the twisted series: the plethystic exponential of
    ``q [t1 t2][t1^r1 t2^r2] / ([t1][t2])`` with ``[x] = x^(1/2) - x^(-1/2)``
    realized through the ``u`` variables."""
    u1 = point.value(u_var(1))
    u2 = point.value(u_var(2))
    r1, r2 = ranks.r1, ranks.r2

    def bracket(x):
        return x - 1 / x

    def f(k: int):
        a, b = u1**k, u2**k
        return (
            bracket(a * b)
            * bracket(a**r1 * b**r2)
            / (bracket(a) * bracket(b))
        )

    return plethystic_exp(f, order)


# ---------------------------------------------------------------------------
# cohomological series
# ---------------------------------------------------------------------------


def coh_variables(ranks: Ranks) -> tuple:
    """The equivariant cohomology variables ``s1, s2`` and ``v(i, alpha)``;
    the cohomological series at ``p`` is
    ``eval_forms(localized_forms(ranks, order), p.linearized())``."""
    return (("s", 1), ("s", 2)) + tuple(("v", i, a) for i, a in ranks.slots())


def zcoh_closed(ranks: Ranks, point: PointAssignment, order: int) -> QSeries:
    """Closed cohomological form: ``(1/(1-q))^c`` with
    ``c = (s1 + s2)(r1 s1 + r2 s2) / (s1 s2)``."""
    s1 = point.value(("s", 1))
    s2 = point.value(("s", 2))
    c = (s1 + s2) * (ranks.r1 * s1 + ranks.r2 * s2) / (s1 * s2)
    return binom_series(c, order)


# ---------------------------------------------------------------------------
# counting and vanishing
# ---------------------------------------------------------------------------


def euler_char_series(ranks: Ranks, order: int) -> QSeries:
    """Generating series of fixed-point counts, ``1/(1-q)^r``: the
    coefficient of ``q^n`` is ``C(n + r - 1, r - 1)``."""
    r = ranks.total
    return QSeries(rational(math.comb(n + r - 1, r - 1)) for n in range(order + 1))


def diagonal_power(m: Monomial) -> int:
    """``k`` when ``m = (t1 t2)^k``, else 0.

    ``1 - m`` vanishes on the divisor ``D = {t1 t2 = 1}`` exactly when
    ``k != 0``; the zero is simple and ``(1 - m) / (1 - t1 t2) = k`` on ``D``.
    """
    k = m.exponent(T1)
    return k if m.exponents() == ((T1, k), (T2, k)) else 0


def cy_order(form: FactoredForm) -> int:
    """Vanishing order ``ord_D`` of a fixed-point weight along ``t1 t2 = 1``.

    Every factor ``1 - m`` with ``m`` not a power of ``t1 t2`` restricts to a
    nonzero function on ``D``, so only the diagonal factors count.  Weights
    of fixed points are never the zero form (movability).
    """
    return sum(c for m, c in form.factors() if diagonal_power(m))


def weight_det(form: FactoredForm) -> Monomial:
    """``det T`` of the character ``T`` whose weight is ``form = k_euler(-T)``:
    ``prod m^k`` over the factors ``(m, k)``."""
    return math.prod((m**k for m, k in form.factors()), start=Monomial.one())


def cy_first_order(forms: list, rest_point: PointAssignment):
    """The first-order term of a coefficient along ``D``: the sum over the
    weights ``W`` with ``ord_D(W) = 1`` of ``W / (1 - t1 t2)`` restricted to
    ``D``, at the rest point ``(t2, w)`` with ``t1 := 1/t2``.

    Raises :class:`~quotloc.chars.PoleAtPoint` when a non-diagonal
    denominator factor vanishes there.
    """
    point = rest_point.with_values({T1: 1 / rest_point.value(T2)})
    total = RAT_ZERO
    for form in forms:
        if cy_order(form) != 1:
            continue
        scale = RAT_ONE
        rest = []
        for m, c in form.factors():
            k = diagonal_power(m)
            if k:
                scale = scale * rational(k) ** c
            else:
                rest.append((m, c))
        total = total + scale * FactoredForm(rest).eval_point(point)
    return total


def cy_first_order_closed(ranks: Ranks, n: int, rest_point: PointAssignment):
    """The closed form's first-order term of ``q^n`` along ``D``:
    ``G(t1^n, t2^n)`` at ``t1 = 1/t2``, since the plethystic logarithm is
    ``sum_k q^k (1 - (t1 t2)^k) G(t1^k, t2^k) / k`` and
    ``1 - x^k = k (1 - x) + O((1 - x)^2)``."""
    t2 = rest_point.value(T2)
    return closed_g(ranks, (1 / t2) ** n, t2**n)
