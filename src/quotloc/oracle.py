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

:func:`oracle_forms` is a block table over Young diagrams, built like a line
table; its blocks share the per-process cache of :func:`pair_tangent`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .chars import T1, T2, Character, FactoredForm, Monomial, k_euler, t_var, w_var
from .series import BlockTable
from .vertex import MovabilityViolation, Ranks, slot_states


@dataclass(frozen=True)
class PartitionTuple:
    """One Young diagram per framing slot, in slot order; a diagram is a
    tuple of weakly decreasing positive parts."""

    ranks: Ranks
    diagrams: tuple

    def __post_init__(self):
        if len(self.diagrams) != self.ranks.total:
            raise ValueError("one diagram per framing slot required")

    @property
    def size(self) -> int:
        return sum(map(sum, self.diagrams))

    def __str__(self) -> str:
        return "(" + "|".join("[" + ",".join(map(str, d)) + "]" for d in self.diagrams) + ")"


@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of ``n`` as tuples of parts, largest first part first."""
    if n == 0:
        return ((),)
    out = []

    def descend(remaining: int, cap: int, prefix: tuple):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(n, n, ())
    return tuple(out)


def partition_tuples(ranks: Ranks, n: int) -> list:
    """All tuples of partitions with total size ``n``, in the order of
    :func:`~quotloc.vertex.slot_states`; the count is the ``q^n`` coefficient
    of ``prod_k (1 - q^k)^(-r)``."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    return [PartitionTuple(ranks, d) for d in slot_states(ranks.total, n, partitions)]


@functools.cache
def diagram_char(parts: tuple) -> Character:
    """Character of one Young diagram: ``sum_boxes t1^a t2^b``, box ``(a, b)``
    in row ``b`` (one per part) and column ``a`` along the first axis."""
    return Character(
        (Monomial([(T1, a), (T2, b)]), 1) for b, length in enumerate(parts) for a in range(length)
    )


def plane_q_char(tup: PartitionTuple) -> Character:
    """Character of the quotient: ``sum_slots w * sum_boxes t1^a t2^b``."""
    return Character(
        (m * Monomial.var(w_var(i, alpha)), 1)
        for (i, alpha), diagram in zip(tup.ranks.slots(), tup.diagrams)
        for m in diagram_char(diagram).monomials()
    )


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
    k = Character((Monomial.var(w), 1) for w in tup.ranks.w_vars())  # K = sum w(i, alpha)
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


def oracle_contribution(tup: PartitionTuple) -> FactoredForm | None:
    """One tuple's weight ``k_euler(insertion) * k_euler(-T)``; ``None`` for the zero class."""
    insertion = k_euler(taut_char(tup))
    return None if insertion is None else insertion * k_euler(-plane_tvir(tup))


@functools.cache
def pair_tangent(lam_a: tuple, lam_b: tuple) -> Character:
    """``P = Z_b + E Z_b bar(Z_a)``: block ``(a, b)`` of the plane tangent is ``w_a^-1 w_b P``."""
    z_b = diagram_char(lam_b)
    return z_b + ENVELOPE * (z_b * diagram_char(lam_a).bar())


def oracle_forms(ranks: Ranks, order: int) -> BlockTable:
    """The oracle weights as a block table over Young diagrams; its sum must
    agree coefficientwise with the intersecting-lines localization.

    Only a diagonal block is ever ``None``.  Block ``(a, b)``'s insertion has the
    weights ``t_i^-1 w t1^x t2^y``, ``w = w_a^-1 w_b``, one per box ``(x, y)`` of
    ``lam_b``.  Off the diagonal ``w != 1``, so none is trivial; on it ``w = 1``, and
    ``(a, a, lam, lam)`` is ``None`` exactly when ``lam`` holds the box ``t_i``.  So
    the table's :attr:`~BlockTable.tree`, reading diagonals first, builds no cross
    block of a killed tuple, and its leaves of degree ``n`` are the ``C(n + r - 1, r - 1)``
    tuples of a column per line-1 slot and a row per line-2 slot."""
    slots = ranks.slots()

    def block(a, b, lam_a, lam_b):
        """The pair factor ``k_euler(t_i^-1 w Z_b) k_euler(-w P)``, ``i`` the line
        of slot ``a``; ``None`` when the insertion is the zero class."""
        (i, alpha), (j, beta) = slots[a], slots[b]
        w = Monomial.var(w_var(i, alpha), -1) * Monomial.var(w_var(j, beta))
        insertion = k_euler(diagram_char(lam_b) * (w * Monomial.var(t_var(i), -1)))
        return None if insertion is None else insertion * k_euler(-(pair_tangent(lam_a, lam_b) * w))

    return BlockTable(len(slots), order, partitions, block)


def block_invariants(key) -> tuple:
    """Rank and trivial coefficient of the tangent block ``w P`` and rank of the
    insertion block (one term per box of ``lam_b``) of block ``key``.  Only a diagonal
    block can hold the trivial weight: ``P`` is pure ``t``, and off the diagonal ``w != 1``."""
    a, b, lam_a, lam_b = key
    p = pair_tangent(lam_a, lam_b)
    return p.rank(), p.trivial_coefficient() if a == b else 0, sum(lam_b)


def plane_invariants(table: BlockTable):
    """Yield ``(diagrams, size, (rank T, trivial coefficient of T, rank I))`` for every
    diagram tuple of an :func:`oracle_forms` table, the zero class included: a fold of
    the table of the same slots, order and states whose block is
    :func:`block_invariants`, never ``None`` (all three add)."""
    invariants = BlockTable(table.slots, table.order, table.states, lambda *key: block_invariants(key))
    add = lambda x, y: (x[0] + y[0], x[1] + y[1], x[2] + y[2])
    return invariants.fold(lambda key: invariants.weights[key], add, (0, 0, 0))
