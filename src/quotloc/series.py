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
import operator
from typing import Callable, Iterable

from .chars import (
    T1,
    T2,
    Character,
    FactoredForm,
    Monomial,
    k_euler,
    pair_value,
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

    ``f_eval(k)`` must return the exact value of the single-box term under the
    Adams operation ``psi_k`` (every monomial to its ``k``-th power).  The
    coefficients follow the derivative recurrence ``n e_n = sum_k f(k) e_(n-k)``.
    """
    f = [None] + [f_eval(k) for k in range(1, order + 1)]
    e = [RAT_ONE]
    for n in range(1, order + 1):
        e.append(sum((f[k] * e[n - k] for k in range(1, n + 1) if f[k]), RAT_ZERO) / n)
    return QSeries(e)


# ---------------------------------------------------------------------------
# localized series
# ---------------------------------------------------------------------------


class _Sources(dict):
    """A plan's sources by first use, read as ``point.factor(m)`` or, for a form's monomial,
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
    for the zero class.  Block weights are built once per table, and so are
    the :attr:`tree` of the fixed points, which every :meth:`fold` and every
    point (:meth:`pairs`) replays, and the :attr:`plan` of its blocks.
    """

    def __init__(self, slots: int, order: int, states, block):
        self.slots, self.order, self.states, self.block = slots, order, states, block
        self.weights = {}

    def weight(self, *key):
        """The weight of block ``key = (a, b, s_a, s_b)``, or ``None``."""
        if key not in self.weights:
            self.weights[key] = self.block(*key)
        return self.weights[key]

    @functools.cached_property
    def tree(self):
        """``(keys, nodes)``: the prefix tree of the fixed points up to the order with no
        ``None`` weight, depth first, one node ``(k, indices, size, state)`` per prefix right
        before its subtree: ``state`` on slot ``k``, the indices into ``keys`` of the ``2k + 1``
        blocks it adds, and on the last slot the leaf's size, else ``None``.  ``keys`` lists the
        distinct block keys with a weight that the walk read, in reading order.  Each slot but the
        last is walked by size descending, so each size's leaves come in ``slot_states`` order.
        A state's blocks are read diagonal ``(k, k, s, s)`` first, and the first ``None`` weight
        prunes its branch before any later block is built: the weights are the one pruning policy."""
        index, nodes = {}, []
        stack = [((), 0, None)]  # (states of the first slots, their size, their last node)
        while stack:
            states, size, node = stack.pop()
            if node:
                nodes.append(node)
            k = len(states)
            last = k + 1 == self.slots  # pushed reversed, the states of a size pop in order
            for m in range(self.order - size + 1):
                for s in self.states(m) if last else reversed(self.states(m)):
                    keys = [(k, k, s, s)]
                    for j, s_j in enumerate(states):
                        keys += [(j, k, s_j, s), (k, j, s, s_j)]
                    indices = []
                    for key in keys:
                        if key not in index:
                            if self.weight(*key) is None:
                                break
                            index[key] = len(index)
                        indices.append(index[key])
                    else:
                        if last:
                            nodes.append((k, tuple(indices), size + m, s))
                        else:
                            stack.append((states + (s,), size + m, (k, tuple(indices), None, s)))
        return list(index), nodes

    def _leaves(self, step, start):
        """Yield ``(states, size, acc)`` per leaf of the :attr:`tree`, in its order: ``acc``
        is ``start`` taken through ``acc = step(indices, acc)`` along its path, kept per slot."""
        prefix, path = [start] * (self.slots + 1), [None] * self.slots
        for k, indices, size, state in self.tree[1]:
            acc = step(indices, prefix[k])
            path[k] = state
            if size is None:
                prefix[k + 1] = acc
            else:
                yield tuple(path), size, acc

    def fold(self, value, combine, start):
        """``(states, size, acc)`` per leaf of the :attr:`tree`, degree by degree in
        :func:`~quotloc.vertex.slot_states` order; ``acc`` combines ``start`` with ``value(w)``
        of the fixed point's block weights ``w``, called once per weight of the tree."""
        values = [value(self.weights[key]) for key in self.tree[0]]
        step = lambda indices, acc: functools.reduce(combine, map(values.__getitem__, indices), acc)
        return sorted(self._leaves(step, start), key=operator.itemgetter(1))

    @functools.cached_property
    def plan(self):
        """``(sources, blocks)``: ``blocks[i]`` is the ``atoms`` of the weight of the
        :attr:`tree`'s key ``i``, read from ``sources`` (see :class:`_Sources`)."""
        sources = _Sources()
        blocks = [self.weight(*key).atoms(sources) for key in self.tree[0]]
        return list(sources), blocks

    def pairs(self, point):
        """Yield ``(states, size, (n, d))`` per leaf of the :attr:`tree`, in its order,
        ``(n, d)`` integer by integer that of a :meth:`fold` of ``eval_pair`` values by pair
        products.  Each source of the :attr:`plan` is read once and each block pair
        formed once."""
        sources, blocks = self.plan
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

        return self._leaves(step, (1, 1))


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


def _add_pairs(x, y):
    (a, b), (c, d) = x, y
    g = math.gcd(b, d) or 1  # b == d == 0: (0, 0), still a pole
    return a * (d // g) + c * (b // g), b // g * d


def degree_sums(leaves, order: int) -> list:
    """Entry ``n`` is the sum of the ``(n, d)`` pairs of the ``(states, size, (n, d))``
    leaves of size ``n``, added unreduced by ``a/b + c/d = (a (d/g) + c (b/g)) /
    ((b/g) d)``, ``g = gcd(b, d)``, as a balanced pairwise tree streamed through a
    binary counter of ``(height, pair)`` per degree (``O(log leaves)`` pairs
    kept), then made one value by :func:`~quotloc.chars.pair_value`.  A sum's
    denominator is 0 exactly when a summand's is: ``b/g`` is 0 only for ``b = 0``
    (``g`` is read as 1 when ``b = d = 0``, where ``gcd`` is 0), so ``(b/g) d``
    is 0 exactly when ``b`` or ``d`` is, and otherwise the pair is the exact sum.
    So :class:`~quotloc.chars.PoleAtPoint` is raised exactly when a leaf has ``d == 0``."""
    stacks = [[] for _ in range(order + 1)]
    for _, size, pair in leaves:
        stack, height = stacks[size], 0
        while stack and stack[-1][0] == height:
            pair, height = _add_pairs(stack.pop()[1], pair), height + 1
        stack.append((height, pair))
    return [pair_value(*functools.reduce(_add_pairs, (p for _, p in reversed(s)), (0, 1))) for s in stacks]


def eval_forms(table: BlockTable, point: PointAssignment) -> QSeries:
    """Evaluate a block table at one point: the :func:`degree_sums` of
    :meth:`BlockTable.pairs`, which replays the table's tree on its plan.  A leaf's
    zeros and poles are its merged weight's (see :func:`line_table`), so a degree
    raises :class:`~quotloc.chars.PoleAtPoint` exactly when a weight has a pole."""
    return QSeries(degree_sums(table.pairs(point), table.order))


def single_box(framing: Monomial) -> FactoredForm:
    """The single-box term ``(1 - t1 t2)(1 - framing) / ((1 - t1)(1 - t2))``, the one
    closed side: every closed form reads it, with ``framing = t1^r1 t2^r2``
    (:meth:`~quotloc.vertex.Ranks.framing`), at a point of the right kind."""
    t1, t2 = Monomial.var(T1), Monomial.var(T2)
    return FactoredForm([(t1 * t2, 1), (framing, 1), (t1, -1), (t2, -1)])


def z_closed(ranks: Ranks, point: PointAssignment, order: int) -> QSeries:
    """The closed form: the plethystic exponential of ``q`` times the
    :func:`single_box`, whose ``q^k`` term reads its Adams operation
    ``box.adams(k)`` at ``point``, of any kind."""
    box = single_box(ranks.framing())
    return plethystic_exp(lambda k: box.adams(k).eval_point(point), order)


def z_rank1_product(point: PointAssignment, order: int) -> QSeries:
    """Rank-one series by the product formula: coefficient ``n`` is the
    :class:`~quotloc.chars.FactoredForm` ``prod_(a=1..n) (1 - t1 t2^a)/(1 - t2^a)``
    at ``point``, so a vanishing denominator raises :class:`~quotloc.chars.PoleAtPoint`."""
    t1, t2 = Monomial.var(T1), Monomial.var(T2)
    factors = [[(t1 * t2**a, 1), (t2**a, -1)] for a in range(1, order + 1)]
    return QSeries(FactoredForm(sum(factors[:n], [])).eval_point(point) for n in range(order + 1))


# ---------------------------------------------------------------------------
# symmetrized (half-weight twisted) series
# ---------------------------------------------------------------------------


def half_weight_twist(ranks: Ranks) -> Monomial:
    """The square root of the determinant twist at degree one, written in
    the ``u`` variables: ``(t1^r1 t2^r2)^(-1/2) = u1^-r1 u2^-r2``.  Degree
    ``n`` takes its ``n``-th power: the twisted series and :func:`zhat_closed`
    scale ``q`` by its value."""
    return Monomial([(u_var(1), -ranks.r1), (u_var(2), -ranks.r2)])


def twisted_point(point: PointAssignment) -> PointAssignment:
    """The point ``t_i = u_i^2`` of a ``(u, w)`` point, at which the
    localized weights take their half-weight values."""
    u1, u2 = point.value(u_var(1)), point.value(u_var(2))
    return point.with_values({T1: u1**2, T2: u2**2})


def zhat_closed(ranks: Ranks, point: PointAssignment, order: int) -> QSeries:
    """Closed form of the twisted series: the plethystic exponential of
    ``q [t1 t2][t1^r1 t2^r2] / ([t1][t2])`` with ``[x] = x^(1/2) - x^(-1/2)``
    realized through the ``u`` variables.  Since ``[x] = -x^(-1/2) (1 - x)``,
    that term is the :func:`single_box` at ``t_i = u_i^2`` times the
    :func:`half_weight_twist`: :func:`z_closed` at :func:`twisted_point`, with
    ``q`` scaled by the twist's value."""
    twist = pair_value(*point.monomial_pair(half_weight_twist(ranks)))
    return z_closed(ranks, twisted_point(point), order).scale_q(twist)


# ---------------------------------------------------------------------------
# cohomological series
# ---------------------------------------------------------------------------


def coh_variables(ranks: Ranks) -> tuple:
    """The equivariant cohomology variables ``s1, s2`` and ``v(i, alpha)``;
    the cohomological series at ``p`` is
    ``eval_forms(localized_forms(ranks, order), p.linearized())``."""
    return (("s", 1), ("s", 2)) + tuple(("v", i, a) for i, a in ranks.slots())


def zcoh_closed(ranks: Ranks, point: PointAssignment, order: int) -> QSeries:
    """Closed cohomological form: :func:`z_closed` at ``point.linearized()``, ``(1/(1-q))^c``
    with ``c = (s1 + s2)(r1 s1 + r2 s2) / (s1 s2)``: ``psi_k`` reads each ``1 - t^mu`` as
    ``-k mu . s``, and the ``k`` cancels over the box's two numerator and two denominator factors."""
    return z_closed(ranks, point.linearized(), order)


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
    :func:`degree_sums` of the block products at ``DiagonalPoint(rest_point)`` of its
    fixed points with ``orders[states] == 1``.  Raises :class:`~quotloc.chars.PoleAtPoint`
    when a non-diagonal denominator factor of such a fixed point vanishes there."""
    leaves = table.pairs(DiagonalPoint(rest_point))
    return degree_sums((leaf for leaf in leaves if orders[leaf[0]] == 1), table.order)


def cy_first_order_closed(ranks: Ranks, n: int, rest_point: PointAssignment):
    """The closed form's first-order term of ``q^n`` along ``D``: ``G``, the
    :func:`single_box` without its ``(1 - t1 t2)``, under the Adams operation
    ``psi_n`` at the plain point ``t1 = 1/t2``, since the plethystic logarithm is
    ``sum_k q^k (1 - (t1 t2)^k) G(t1^k, t2^k) / k`` and ``1 - x^k = k (1 - x)
    + O((1 - x)^2)``.  Not at a :class:`DiagonalPoint`: ``1 - (t1 t2)^r`` of
    ``r1 = r2 = r`` must read 0."""
    box = single_box(ranks.framing()).character
    g = FactoredForm(box - Character.from_monomial(Monomial([(T1, 1), (T2, 1)])))
    return g.adams(n).eval_point(rest_point.with_values({T1: 1 / rest_point.value(T2)}))
