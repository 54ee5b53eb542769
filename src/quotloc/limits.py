"""Framing-limit calculus: exact limits of localization weights when the
framing parameters are sent to infinity at hierarchical speeds.

The framing variables are ordered by speed along the lexicographic slot
order ``(1,1) < (1,2) < ... < (2,r2)``: every line-2 variable outruns every
line-1 variable, and within a line later slots outrun earlier ones.  The
speed hierarchy is formalized as lexicographic dominance of exponent
vectors rather than concrete huge integers, which turns the limit of a
factored form into an exact computation:

* a factor ``(1 - m)^c`` with decaying ``m`` tends to 1 and is dropped,
* a neutral factor (no framing variables in ``m``) is kept verbatim,
* a growing factor behaves as ``(-m)^c``; the growing monomials must
  cancel all framing variables between them, otherwise the limit diverges.

With this calculus the block limits become symbolic identities and the
factorization of the partition function into rank-one series is a finite
mechanical computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chars import FactoredForm, Monomial, k_euler
from .rational import rational
from .series import BlockTable, line_table
from .vertex import FixedPoint, Ranks, vertex_block

GROWING, NEUTRAL, DECAYING = 1, 0, -1


class DivergentLimit(ArithmeticError):
    """The growing factors' framing exponents do not cancel."""


@dataclass(frozen=True)
class SpeedOrder:
    """Speed hierarchy of the framing variables for one rank pair.

    ``degree`` reads a monomial's framing exponents from the fastest
    variable down to the slowest; the lexicographic sign of that vector
    classifies the monomial as growing, neutral or decaying.
    """

    ranks: Ranks

    def fast_to_slow(self) -> tuple:
        """Framing variables ordered fastest first (reverse slot order)."""
        return tuple(("w",) + slot for slot in reversed(self.ranks.slots()))

    def degree(self, m: Monomial) -> tuple:
        return tuple(m.exponent(v) for v in self.fast_to_slow())

    def classify(self, m: Monomial) -> int:
        for e in self.degree(m):
            if e > 0:
                return GROWING
            if e < 0:
                return DECAYING
        return NEUTRAL


@dataclass(frozen=True)
class LimitValue:
    """An exact framing limit: ``sign * monomial * prod (1 - m)^c`` with a
    pure-``t`` monomial and pure-``t`` factors."""

    sign: int
    monomial: Monomial
    factors: FactoredForm

    @classmethod
    def from_monomial(cls, m: Monomial) -> "LimitValue":
        return cls(1, m, FactoredForm.one())

    @property
    def is_one(self) -> bool:
        return self.sign == 1 and self.monomial.is_one and self.factors.is_one

    def __mul__(self, other: "LimitValue") -> "LimitValue":
        return LimitValue(
            self.sign * other.sign,
            self.monomial * other.monomial,
            self.factors * other.factors,
        )

    def eval_pair(self, point):
        """The value at ``point`` as an unreduced integer pair, as
        :meth:`FactoredForm.eval_pair`."""
        n, d = self.factors.eval_pair(point)
        a, b = point.monomial_pair(self.monomial)
        return self.sign * a * n, b * d

    def eval_point(self, point):
        return rational(*self.eval_pair(point))


def framing_limit(form: FactoredForm, order: SpeedOrder) -> LimitValue:
    """Exact limit of a factored form under the speed hierarchy.

    Raises :class:`DivergentLimit` when the product of growing monomials
    retains a framing variable.
    """
    if form.is_zero:
        raise ValueError("the zero factored form has no framing limit")
    kept = []
    residual = Monomial.one()
    growing_multiplicity = 0
    for m, c in form.factors():
        cls = order.classify(m)
        if cls == DECAYING:
            continue
        if cls == NEUTRAL:
            kept.append((m, c))
        else:
            residual = residual * m**c
            growing_multiplicity += c
    if any(v[0] == "w" for v in residual.variables()):
        raise DivergentLimit(
            f"unbalanced framing exponents in growing part {residual!r}"
        )
    sign = -1 if growing_multiplicity % 2 else 1
    return LimitValue(sign, residual, FactoredForm(kept))


def block_limit(bn: FixedPoint, i: int, j: int, alpha: int, beta: int) -> LimitValue:
    """Framing limit of one block's localization weight."""
    block = vertex_block(bn, i, j, alpha, beta)
    return framing_limit(k_euler(-block), SpeedOrder(bn.ranks))


def limit_table(ranks: Ranks, order: int) -> BlockTable:
    """The block limits of ``ranks`` as a block table (pure ``t`` weights).

    Its sum needs only ``t1, t2``: the framing variables are gone after the
    limit.  Agreement with the closed form re-derives the factorization into
    rank-one series.
    """
    speed = SpeedOrder(ranks)
    return line_table(ranks, order, lambda block: framing_limit(k_euler(-block), speed))


def crossing_shift_monomial(bn: FixedPoint) -> Monomial:
    """The product ``prod_(slot < slot') t_j^(n_slot)`` of all cross-block
    limit monomials at a fixed point."""
    slots = bn.ranks.slots()
    total = Monomial.one()
    for a_idx, (i, alpha) in enumerate(slots):
        for j, _beta in slots[a_idx + 1 :]:
            total = total * Monomial.var(("t", j), bn.length(i, alpha))
    return total


def factored_shift_monomial(bn: FixedPoint) -> Monomial:
    """The same product rearranged per slot, as it enters the q-shifts:
    ``prod_a (t1^(r1-a) t2^r2)^(n_1a) * prod_a t2^((r2-a) n_2a)``."""
    r1, r2 = bn.ranks.r1, bn.ranks.r2
    exps = {("t", 1): 0, ("t", 2): 0}
    for a in range(1, r1 + 1):
        m = bn.length(1, a)
        exps[("t", 1)] += (r1 - a) * m
        exps[("t", 2)] += r2 * m
    for a in range(1, r2 + 1):
        exps[("t", 2)] += (r2 - a) * bn.length(2, a)
    return Monomial(exps)
