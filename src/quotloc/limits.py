"""Framing-limit calculus: exact limits of localization weights when the
framing parameters are sent to infinity at hierarchical speeds.

The framing variables are ordered by speed along the lexicographic slot
order ``(1,1) < (1,2) < ... < (2,r2)``, their sort order: every line-2
variable outruns every line-1 variable, and within a line later slots
outrun earlier ones.  The speed hierarchy is formalized as lexicographic
dominance of exponent vectors rather than concrete huge integers, which
turns the limit of a factored form into an exact computation:

* a factor ``(1 - m)^c`` with decaying ``m`` tends to 1 and is dropped,
* a neutral factor (no framing variables in ``m``) is kept verbatim,
* a growing factor behaves as ``(-m)^c``; the growing monomials must
  cancel all framing variables between them, otherwise the limit diverges.

With this calculus the block limits become symbolic identities and the
factorization of the partition function into rank-one series is a finite
mechanical computation.
"""

from __future__ import annotations

from .chars import T1, T2, FactoredForm, Monomial, k_euler
from .series import BlockTable, line_table
from .vertex import FixedPoint, Ranks

GROWING, NEUTRAL, DECAYING = 1, 0, -1


class DivergentLimit(ArithmeticError):
    """The growing factors' framing exponents do not cancel."""


def classify(m: Monomial) -> int:
    """The sign of ``m``'s fastest framing exponent: growing, neutral or decaying.  The
    speed order is the variables' sort order, so it is the last of ``m.exponents()``."""
    for v, e in m.exponents()[-1:]:
        if v[0] == "w":
            return GROWING if e > 0 else DECAYING
    return NEUTRAL


def framing_limit(form: FactoredForm) -> FactoredForm:
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
        cls = classify(m)
        if cls == NEUTRAL:
            kept.append((m, c))
        elif cls == GROWING:
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
    return line_table(ranks, order, lambda block: framing_limit(k_euler(-block)))


def slot_shifts(ranks: Ranks) -> tuple:
    """The q-shift of each slot, in slot order: ``t1^(r1-a) t2^r2`` on slot
    ``(1, a)`` and ``t2^(r2-a)`` on slot ``(2, a)``, the product of ``t_j``
    over the slots ``(j, b)`` after it."""
    r1, r2 = ranks.r1, ranks.r2
    return tuple(
        Monomial([(T1, r1 - a), (T2, r2)]) if i == 1 else Monomial.var(T2, r2 - a)
        for i, a in ranks.slots()
    )


def crossing_shift_monomial(bn: FixedPoint) -> Monomial:
    """The product ``prod_(slot < slot') t_j^(n_slot)`` of all cross-block
    limit monomials at a fixed point."""
    slots = bn.ranks.slots()
    total = Monomial.one()
    for a_idx, (i, alpha) in enumerate(slots):
        for j, _beta in slots[a_idx + 1 :]:
            total = total * Monomial.var(("t", j), bn.length(i, alpha))
    return total


def factored_shift_monomial(bn: FixedPoint, shifts: tuple) -> Monomial:
    """The same product rearranged per slot, as it enters the q-shifts:
    ``prod_slot shift^(n_slot)`` over ``shifts``, the :func:`slot_shifts` of
    ``bn.ranks`` (built once per rank pair)."""
    pairs = zip(shifts, bn.lengths)
    return Monomial([(v, e * n) for shift, n in pairs for v, e in shift.exponents()])
