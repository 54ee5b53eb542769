"""Truncated q-series over exact scalars and the partition functions.

Coefficients of the localized series are exact rational numbers obtained by
evaluating every fixed point's localization weight at a point assignment;
the closed forms are plethystic exponentials of one explicit single-box
term.  Equality of the two is the central claim the package verifies, and
it holds coefficient by coefficient as exact rational identities.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable

from .chars import (
    T1,
    T2,
    FactoredForm,
    Monomial,
    k_euler,
    pair_value,
    t_var,
    u_var,
)
from .points import PointAssignment
from .rational import ONE as RAT_ONE, ZERO as RAT_ZERO, rational
from .vertex import Ranks, line_states, vertex_block


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


class _Sources(dict):
    """A plan's sources by first use, read as ``point.factor(m)`` or, for a limit's monomial,
    ``point.monomial_pair(m)``: standing for the point in a weight's ``atoms``, source ``i``
    gives the atom indices ``2i, 2i + 1``."""

    def factor(self, m, limit=False):
        return self.setdefault((m, limit), (2 * len(self), 2 * len(self) + 1))

    def monomial_pair(self, m):
        return self.factor(m, True)


class BlockTable:
    """A localized sum as a product of framing-pair blocks.

    A fixed point puts one state on each of ``slots`` framing slots (a length
    on the lines, a Young diagram on the plane; ``states(n)`` lists those of
    size ``n``).  Its tangent character is the sum of its blocks and the
    Euler operator is multiplicative, so its weight is the product over
    ordered slot pairs of ``block(a, b, state_a, state_b)``, which is ``None``
    for the zero class.  Block weights are built once per table, and so is the
    plan that :meth:`pairs` evaluates at every point.
    """

    def __init__(self, slots: int, order: int, states, block):
        self.slots, self.order, self.states, self.block = slots, order, states, block
        self.weights = {}

    def weight(self, *key):
        """The weight of block ``key = (a, b, s_a, s_b)``, or ``None``."""
        if key not in self.weights:
            self.weights[key] = self.block(*key)
        return self.weights[key]

    def walk(self, value):
        """Yield the prefix tree of the fixed points up to the order with no block of value
        ``None``, depth first, as nodes ``(k, values, size, state)``: ``state`` on slot ``k``
        below the last node of depth ``k - 1``, the ``value(key)`` of the ``2k + 1`` blocks it
        adds, and on the last slot the leaf's size, else ``None``.  Sorted stably by size, the
        leaves come in :func:`~quotloc.vertex.slot_states` order.  A state's blocks are read
        diagonal ``(k, k, s, s)`` first, the first ``None`` prunes its branch before any later
        block is read, and ``value(key)`` is called at most once per block key per call."""
        values = {}
        stack = [((), 0, None)]  # (states of the first slots, their size, their last node)
        while stack:
            states, size, node = stack.pop()
            if node:
                yield node
            k = len(states)
            last = k + 1 == self.slots  # pushed reversed, the states of a size pop in order
            for m in range(self.order - size + 1):
                for s in self.states(m) if last else reversed(self.states(m)):
                    keys = [(k, k, s, s)]
                    for j, s_j in enumerate(states):
                        keys += [(j, k, s_j, s), (k, j, s, s_j)]
                    blocks = []
                    for key in keys:
                        if key not in values:
                            values[key] = value(key)
                        if values[key] is None:
                            break
                        blocks.append(values[key])
                    else:
                        if last:
                            yield k, tuple(blocks), size + m, s
                        else:
                            stack.append((states + (s,), size + m, (k, tuple(blocks), None, s)))

    def _leaves(self, nodes, step, start):
        """Yield ``(states, size, acc)`` per leaf of the :meth:`walk` ``nodes``: ``acc`` is
        ``start`` taken through ``acc = step(values, acc)`` along its path, kept per slot."""
        prefix, path = [start] * (self.slots + 1), [None] * self.slots
        for k, values, size, state in nodes:
            acc = step(values, prefix[k])
            path[k] = state
            if size is None:
                prefix[k + 1] = acc
            else:
                yield tuple(path), size, acc

    def fold(self, value, combine, start):
        """Yield ``(states, size, acc)`` for every leaf of :meth:`walk`, in its order; ``acc``
        combines ``start`` with the fixed point's block values, slot by slot."""
        return self._leaves(self.walk(value), functools.partial(functools.reduce, combine), start)

    @functools.cached_property
    def plan(self):
        """``(sources, blocks, nodes)``: ``nodes`` is the :meth:`walk` whose ``value`` numbers
        the blocks read (``None``: the zero class), and ``blocks[i]`` is block ``i``'s
        ``atoms`` (see :class:`_Sources`)."""
        sources, blocks = _Sources(), []

        def index(key):
            w = self.weight(*key)
            if w is not None:
                blocks.append(w.atoms(sources))
                return len(blocks) - 1

        nodes = list(self.walk(index))
        return list(sources), blocks, nodes

    def pairs(self, point):
        """Yield ``(states, size, (n, d))`` per leaf of :meth:`fold`, in its order,
        ``(n, d)`` integer by integer that of a fold of ``eval_pair`` values by pair
        products.  Each source of the :attr:`plan` is read once and each block pair
        formed once."""
        sources, blocks, nodes = self.plan
        atoms = []
        for m, limit in sources:
            atoms += point.monomial_pair(m) if limit else point.factor(m)
        nums = [math.prod([atoms[i] for i in num]) for num, _ in blocks]
        dens = [math.prod([atoms[i] for i in den]) for _, den in blocks]

        def step(indices, acc):
            n, d = acc
            for i in indices:
                n *= nums[i]
                d *= dens[i]
            return n, d

        return self._leaves(nodes, step, (1, 1))


def line_table(ranks: Ranks, order: int, weight) -> BlockTable:
    """The fixed-line sum as a block table: a slot's state is its length and
    block ``(a, b, m_a, m_b)`` has weight ``weight(vertex_block(slots[a],
    slots[b], m_a, m_b))``, with ``slots = ranks.slots()``.

    Block values multiply to the merged weight's value, zeros and poles
    included: no monomial is a numerator factor of one block of a fixed point
    and a denominator factor of another.  A cross block's factors carry its
    ``w(i,a)^-1 w(j,b)``; a diagonal block's are ``(1 - t_ihat^k)^-1`` and
    ``(1 - t_i t_ihat^k)^+1``, ``k >= 1``, which never coincide; a framing
    limit keeps some of these."""
    slots = ranks.slots()

    def block(a, b, m_a, m_b):
        return weight(vertex_block(slots[a], slots[b], m_a, m_b))

    return BlockTable(len(slots), order, line_states, block)


def localized_forms(ranks: Ranks, order: int) -> BlockTable:
    """The localization weights ``k_euler(-T)`` up to degree ``order``;
    point-independent: build once, evaluate often."""
    return line_table(ranks, order, lambda block: k_euler(-block))


def eval_forms(table: BlockTable, point: PointAssignment) -> QSeries:
    """Evaluate a block table at one point and sum each degree over
    :meth:`BlockTable.pairs`, whose plan one walk builds on the first call.
    Each leaf is normalised once by :func:`~quotloc.chars.pair_value`, which
    raises :class:`~quotloc.chars.PoleAtPoint` exactly when a leaf has ``d ==
    0``: its zeros and poles are the merged weight's (see :func:`line_table`)."""
    totals = [RAT_ZERO] * (table.order + 1)
    for _, size, (n, d) in table.pairs(point):
        totals[size] += pair_value(n, d)
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
    """Vanishing order ``ord_D`` of a weight along ``t1 t2 = 1``.

    Every factor ``1 - m`` with ``m`` not a power of ``t1 t2`` restricts to a
    nonzero function on ``D``, so only the diagonal factors count, and the
    order of a fixed point is the sum of its blocks' orders.  Weights of
    fixed points are never the zero class (movability).
    """
    return sum(c for m, c in form.factors() if diagonal_power(m))


class DiagonalPoint(PointAssignment):
    """A rest point ``(t2, w)`` put on ``D`` by ``t1 := 1/t2``, where the factor
    ``1 - (t1 t2)^k`` takes the value ``k``, its quotient by ``1 - t1 t2`` on
    ``D``: a weight of ``ord_D = 1`` evaluates to ``W / (1 - t1 t2)`` there."""

    __slots__ = ()

    def __init__(self, rest_point: PointAssignment):
        super().__init__({**rest_point._values, T1: 1 / rest_point.value(T2)})

    def factor(self, monomial):
        k = diagonal_power(monomial)
        return (k, 1) if k else super().factor(monomial)


def cy_first_order(table: BlockTable, orders: dict, rest_point: PointAssignment) -> list:
    """Entry ``n`` is the first-order term of coefficient ``n`` along ``D``: the
    block products at ``DiagonalPoint(rest_point)`` of its fixed points with
    ``orders[states] == 1``.  Raises :class:`~quotloc.chars.PoleAtPoint` when a
    non-diagonal denominator factor of such a fixed point vanishes there."""
    totals = [RAT_ZERO] * (table.order + 1)
    for states, size, (n, d) in table.pairs(DiagonalPoint(rest_point)):
        if orders[states] == 1:
            totals[size] += pair_value(n, d)
    return totals


def cy_first_order_closed(ranks: Ranks, n: int, rest_point: PointAssignment):
    """The closed form's first-order term of ``q^n`` along ``D``:
    ``G(t1^n, t2^n)`` at ``t1 = 1/t2``, since the plethystic logarithm is
    ``sum_k q^k (1 - (t1 t2)^k) G(t1^k, t2^k) / k`` and
    ``1 - x^k = k (1 - x) + O((1 - x)^2)``."""
    t2 = rest_point.value(T2)
    return closed_g(ranks, (1 / t2) ** n, t2**n)
