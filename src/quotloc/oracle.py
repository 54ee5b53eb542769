"""Independent cross-check through the Quot scheme of the affine plane.

Torus fixed points there are tuples of Young diagrams, one per framing
summand, with box ``(a, b)`` carrying weight ``t1^a t2^b`` (rows run along
the first axis).  The virtual tangent character is

    T = bar(K) Q + (t1^-1 + t2^-1 - 1 - t1^-1 t2^-1) Q bar(Q)

of rank ``r n``, and the intersecting-lines invariants are recovered as
``sum_T k_euler(I) * k_euler(-T)`` where ``I`` is the character of the
rank-``rn`` tautological insertion.  Agreement with the fixed-line
localization is the strongest end-to-end check in the package, since the
fixed-point combinatorics on the two sides are completely different.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .chars import T1, T2, Character, FactoredForm, Monomial, k_euler, t_var, w_var
from .series import BlockTable
from .vertex import MovabilityViolation, Ranks


@dataclass(frozen=True)
class Partition:
    """A partition: weakly decreasing positive parts."""

    parts: tuple

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[k] < self.parts[k + 1] for k in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def boxes(self) -> Iterator[tuple]:
        """Boxes ``(a, b)``: row ``b`` (one per part) holds columns
        ``a = 0 .. part-1`` along the first axis."""
        for b, length in enumerate(self.parts):
            for a in range(length):
                yield (a, b)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


@dataclass(frozen=True)
class PartitionTuple:
    """One Young diagram per framing slot, in slot order."""

    ranks: Ranks
    diagrams: tuple

    def __post_init__(self):
        if len(self.diagrams) != self.ranks.total:
            raise ValueError("one diagram per framing slot required")

    @property
    def size(self) -> int:
        return sum(d.size for d in self.diagrams)

    def __str__(self) -> str:
        return "(" + "|".join(str(d) for d in self.diagrams) + ")"


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of ``n``, largest first part first."""
    if n == 0:
        return (Partition(()),)
    out = []

    def descend(remaining: int, cap: int, prefix: tuple):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(n, n, ())
    return tuple(out)


def partition_tuples(ranks: Ranks, n: int) -> list:
    """All tuples of partitions with total size ``n``; the count is the
    ``q^n`` coefficient of ``prod_k (1 - q^k)^(-r)``."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    r = ranks.total
    out = []

    def descend(slot: int, remaining: int, prefix: tuple):
        if slot == r - 1:
            for diagram in partitions(remaining):
                out.append(PartitionTuple(ranks, prefix + (diagram,)))
            return
        for here in range(remaining, -1, -1):
            for diagram in partitions(here):
                descend(slot + 1, remaining - here, prefix + (diagram,))

    descend(0, n, ())
    return out


def diagram_char(diagram: Partition) -> Character:
    """Character of one Young diagram: ``sum_boxes t1^a t2^b``."""
    return Character((Monomial([(T1, a), (T2, b)]), 1) for a, b in diagram.boxes())


def plane_q_char(tup: PartitionTuple) -> Character:
    """Character of the quotient: ``sum_slots w * sum_boxes t1^a t2^b``."""
    return Character(
        (m * Monomial.var(w_var(i, alpha)), 1)
        for (i, alpha), diagram in zip(tup.ranks.slots(), tup.diagrams)
        for m in diagram_char(diagram).monomials()
    )


def plane_framing_char(ranks: Ranks) -> Character:
    """The total framing character ``K = sum w(i, alpha)``."""
    return Character((Monomial.var(w_var(i, a)), 1) for i, a in ranks.slots())


# E = t1^-1 + t2^-1 - 1 - t1^-1 t2^-1, the Q bar(Q) coefficient of the tangent
ENVELOPE = Character(
    (Monomial([(T1, a), (T2, b)]), c) for a, b, c in ((-1, 0, 1), (0, -1, 1), (0, 0, -1), (-1, -1, -1))
)


def plane_tvir(tup: PartitionTuple) -> Character:
    """Virtual tangent character of the plane Quot scheme at a monomial
    fixed point; rank ``r n``, movable after cancellation."""
    q = plane_q_char(tup)
    if q.is_zero:
        return Character.zero()
    k = plane_framing_char(tup.ranks)
    term = k.bar() * q + ENVELOPE * (q * q.bar())
    if term.trivial_coefficient():
        raise MovabilityViolation(f"trivial weight in plane tangent at {tup}")
    return term


def taut_char(tup: PartitionTuple) -> Character:
    """Character of the rank-``rn`` tautological insertion:
    ``sum_slots w(i,alpha)^-1 t_i^-1 * Q``."""
    q = plane_q_char(tup)
    if q.is_zero:
        return Character.zero()
    twist = Character(
        (Monomial([(w_var(i, a), -1), (t_var(i), -1)]), 1)
        for i, a in tup.ranks.slots()
    )
    return twist * q


def oracle_contribution(tup: PartitionTuple) -> FactoredForm:
    """One tuple's weight: ``k_euler(insertion) * k_euler(-T)``."""
    return k_euler(taut_char(tup)) * k_euler(-plane_tvir(tup))


def oracle_forms(ranks: Ranks, order: int) -> BlockTable:
    """The oracle weights as a block table over Young diagrams; its sum must
    agree coefficientwise with the intersecting-lines localization.  Block
    ``(a, b)`` is the pair factor ``k_euler(t_i^-1 w Z_b) k_euler(-w (Z_b + E
    Z_b bar(Z_a)))`` with ``w = w_a^-1 w_b`` and ``i`` the line of slot ``a``;
    ``None`` when the insertion is the zero class."""
    slots = ranks.slots()

    def block(a, b, lam_a, lam_b):
        (i, alpha), (j, beta) = slots[a], slots[b]
        w = Monomial.var(w_var(i, alpha), -1) * Monomial.var(w_var(j, beta))
        z_b = diagram_char(lam_b)
        insertion = k_euler(z_b * (w * Monomial.var(t_var(i), -1)))
        if insertion.is_zero:
            return None
        tangent = (z_b + ENVELOPE * (z_b * diagram_char(lam_a).bar())) * w
        return insertion * k_euler(-tangent)

    return BlockTable(len(slots), order, partitions, block)
