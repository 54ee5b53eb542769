"""Torus fixed points on the intersecting-lines Quot scheme and their
virtual tangent characters.

Fixed points of rank ``(r1, r2)`` and length ``n`` are compositions of ``n``
into ``r1 + r2`` labeled nonnegative parts, one per framing summand, listed by
:func:`slot_states` with the line states :func:`line_states`.  The
quotient supported on line ``i`` with length ``m`` has character
``w * (1 + t_ihat + ... + t_ihat^(m-1))`` where ``ihat`` is the other axis.
The virtual tangent character at a fixed point is

    T = sum_i bar(K_i) (1 - t_i^-1) Q  -  (1 - t1^-1)(1 - t2^-1) Q bar(Q)

which splits into framing-pair blocks.  :func:`vertex_block` builds each from its
telescoped closed form; :func:`vertex_term`, the reference, computes ``T`` whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .chars import Character, FactoredForm, Monomial, k_euler, t_var, w_var


class MovabilityViolation(RuntimeError):
    """A trivial weight survived cancellation in a virtual tangent character.

    Unreachable for correct inputs; raised instead of silently dropping the
    weight because it can only signal a bug.
    """


@dataclass(frozen=True)
class Ranks:
    """The pair of framing ranks ``(r1, r2)`` on the two lines."""

    r1: int
    r2: int

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("ranks must be nonnegative")
        if self.r1 + self.r2 < 1:
            raise ValueError("total rank must be at least 1")

    @property
    def total(self) -> int:
        return self.r1 + self.r2

    def slots(self) -> tuple:
        """Framing indices ``(i, alpha)`` in lexicographic order."""
        return tuple((1, a) for a in range(1, self.r1 + 1)) + tuple(
            (2, a) for a in range(1, self.r2 + 1)
        )

    def framing(self) -> Monomial:
        """``t1^r1 t2^r2``, the framing factor of the closed form's single box."""
        return Monomial([(t_var(1), self.r1), (t_var(2), self.r2)])

    def w_vars(self) -> tuple:
        return tuple(w_var(i, a) for i, a in self.slots())

    def variables(self) -> tuple:
        """All torus variables: ``t1, t2`` and the framing variables."""
        return (t_var(1), t_var(2)) + self.w_vars()


@dataclass(frozen=True)
class FixedPoint:
    """A fixed point: one nonnegative length per framing slot."""

    ranks: Ranks
    lengths: tuple

    def __post_init__(self):
        if len(self.lengths) != self.ranks.total:
            raise ValueError("one length per framing slot required")
        if any(m < 0 for m in self.lengths):
            raise ValueError("lengths must be nonnegative")

    @property
    def size(self) -> int:
        return sum(self.lengths)

    def length(self, i: int, alpha: int) -> int:
        if i == 1:
            return self.lengths[alpha - 1]
        return self.lengths[self.ranks.r1 + alpha - 1]

    def __str__(self) -> str:
        r1 = self.ranks.r1
        left = ",".join(str(m) for m in self.lengths[:r1])
        right = ",".join(str(m) for m in self.lengths[r1:])
        return f"({left}|{right})"


def line_states(m: int) -> tuple:
    """The one state of size ``m`` on a line slot: the length ``m`` itself."""
    return (m,)


def slot_states(slots: int, n: int, states) -> Iterator[tuple]:
    """Every tuple of one state per slot whose sizes sum to ``n``, ``states(m)``
    listing the states of size ``m`` as for :class:`~quotloc.series.BlockTable`:
    the first slot's size descending, then the next slot's, the last taking the size left.
    Walked on an explicit stack, as :attr:`~quotloc.series.BlockTable.tree` is, so any
    number of slots fits."""
    stack = [((), n)]  # (states of the first slots, the size left for the others)
    while stack:
        prefix, left = stack.pop()
        if len(prefix) == slots:
            if left == 0:
                yield prefix
            continue
        # pushed size ascending and states reversed, so they pop in order
        for m in range(left + 1) if len(prefix) + 1 < slots else (left,):
            for s in reversed(states(m)):
                stack.append((prefix + (s,), left - m))


def fixed_points(ranks: Ranks, n: int) -> list:
    """The torus fixed points of length ``n``: compositions into labeled
    slots, count ``C(n + r - 1, r - 1)``."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return [FixedPoint(ranks, c) for c in slot_states(ranks.total, n, line_states)]


def fixed_point_count(n: int, r: int, cap: int) -> int:
    """``C(n + r, r)``, the fixed points of total rank ``r`` up to length ``n``, or a number
    over ``cap`` once they exceed it: ``C(n + r, k)`` grows with ``k`` up to ``min(n, r)``."""
    count, k = 1, 0
    while count <= cap and k < min(n, r):
        k += 1
        count = count * (n + r + 1 - k) // k
    return count


def box_char(m: int, i: int) -> Character:
    """Character of the length-``m`` quotient on line ``i``:
    ``1 + t + ... + t^(m-1)`` in the opposite axis variable."""
    if m < 0:
        raise ValueError("length must be nonnegative")
    t = t_var(3 - i)
    return Character((Monomial.var(t, a), 1) for a in range(m))


def q_char(bn: FixedPoint) -> Character:
    """Character of the full quotient at the fixed point; rank = length."""
    total = Character.zero()
    for i, a in bn.ranks.slots():
        total = total + box_char(bn.length(i, a), i) * Monomial.var(w_var(i, a))
    return total


def framing_char(ranks: Ranks, i: int) -> Character:
    """The framing character ``K_i = sum_alpha w(i, alpha)``."""
    r = ranks.r1 if i == 1 else ranks.r2
    return Character((Monomial.var(w_var(i, a)), 1) for a in range(1, r + 1))


def _one_minus_tinv(i: int) -> Character:
    return Character.one() - Character.from_monomial(Monomial.var(t_var(i), -1))


def vertex_term(bn: FixedPoint) -> Character:
    """The virtual tangent character at a fixed point (rank 0, movable)."""
    q = q_char(bn)
    if q.is_zero:
        return Character.zero()
    term = Character.zero()
    for i in (1, 2):
        ki = framing_char(bn.ranks, i)
        if not ki.is_zero:
            term = term + ki.bar() * _one_minus_tinv(i) * q
    term = term - _one_minus_tinv(1) * _one_minus_tinv(2) * (q * q.bar())
    if term.trivial_coefficient():
        raise MovabilityViolation(f"trivial weight in vertex term at {bn}")
    return term


def vertex_block(slot_a: tuple, slot_b: tuple, m_a: int, m_b: int) -> Character:
    """The vertex-term block of slots ``(i, alpha)``, ``(j, beta)`` with lengths ``m_a``, ``m_b``,

    ``w(i,a)^-1 w(j,b) ((1 - t_i^-1) Z_(j,b) - (1-t1^-1)(1-t2^-1) bar(Z_(i,a)) Z_(j,b))``,

    in its telescoped form ``w(i,a)^-1 w(j,b) t_ihat^-m_a (1 - t_i^-1) Z_(j,b)``,
    where ``ihat = 3 - i``: ``bar(Z_(i,a)) = sum_(k < m_a) t_ihat^-k``, so
    ``(1 - t_ihat^-1) bar(Z_(i,a)) = 1 - t_ihat^-m_a``.  For ``i != j`` the block
    is the prefix times ``t_i^(m_b - 1) - t_i^-1``; for ``i == j`` it has ``2 m_b``
    distinct terms.  Each monomial is written from its exponents as a sorted tuple,
    its ``t``-part followed by its ``w``-part, with no character or monomial
    product.  Summing the blocks of all slot pairs of a fixed point reproduces
    :func:`vertex_term`.
    """
    (i, alpha), (j, beta) = slot_a, slot_b
    t_i, t_ihat, shift = t_var(i), t_var(3 - i), -m_a
    w = () if slot_a == slot_b else tuple(sorted([(w_var(i, alpha), -1), (w_var(j, beta), 1)]))
    terms = []
    if i == j:
        for k in range(shift, shift + m_b):
            terms += [([(t_ihat, k)], 1), ([(t_ihat, k), (t_i, -1)], -1)]
    elif m_b:
        terms = [([(t_ihat, shift), (t_i, m_b - 1)], 1), ([(t_ihat, shift), (t_i, -1)], -1)]
    return Character(
        (Monomial._canonical(tuple(sorted([(v, e) for v, e in t if e])) + w), c) for t, c in terms
    )


def vertex_blocks_sum(bn: FixedPoint) -> Character:
    """The vertex term reassembled from its blocks (internal cross-check)."""
    slots = bn.ranks.slots()
    total = Character.zero()
    for a in slots:
        for b in slots:
            total = total + vertex_block(a, b, bn.length(*a), bn.length(*b))
    return total


def smooth_tangent(bn: FixedPoint) -> Character:
    """Tangent character of the smooth one-line Quot scheme (``r1 = 0``):
    ``T = bar(K_2) Q - (1 - t1^-1) Q bar(Q)``."""
    if bn.ranks.r1 != 0:
        raise ValueError("smooth tangent character requires r1 = 0")
    q = q_char(bn)
    if q.is_zero:
        return Character.zero()
    k2 = framing_char(bn.ranks, 2)
    return k2.bar() * q - _one_minus_tinv(1) * (q * q.bar())


def contribution(bn: FixedPoint) -> FactoredForm:
    """The fixed point's localization weight ``k_euler(-T)``: by movability
    never zero and never a division by ``1 - 1``."""
    return k_euler(-vertex_term(bn))
