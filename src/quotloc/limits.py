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
from .series import BlockTable, line_table
from .vertex import FixedPoint, Ranks

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


def framing_limit(form: FactoredForm, order: SpeedOrder) -> FactoredForm:
    """Exact limit of a factored form under the speed hierarchy: a pure-``t`` monomial
    times the form's neutral factors.

    A growing ``(1 - m)^c`` tends to ``(-m)^c``.  Raises :class:`DivergentLimit`
    when the growing monomials' product keeps a framing variable, and
    ``ValueError`` when the growing multiplicity ``g`` (the sum of their ``c``)
    is odd: the limit's sign ``(-1)^g`` is then -1.  No line block has odd ``g``:
    a cross block is ``w(i,a)^-1 w(j,b)`` times a pure-``t`` character of rank
    0, so its factors all grow or all decay, and ``g`` is 0 or minus that rank,
    0; a diagonal block has no ``w``, so nothing in it grows.
    """
    kept, residual, growing = [], Monomial.one(), 0
    for m, c in form.factors():
        cls = order.classify(m)
        if cls == DECAYING:
            continue
        if cls == NEUTRAL:
            kept.append((m, c))
        else:
            residual = residual * m**c
            growing += c
    if any(v[0] == "w" for v in residual.variables()):
        raise DivergentLimit(f"unbalanced framing exponents in growing part {residual!r}")
    if growing % 2:
        raise ValueError(f"odd growing multiplicity {growing}: the limit has sign -1")
    return FactoredForm(kept, residual)


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
