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
table; each block is a slot-free :func:`pair_template`, cached per process
beside :func:`pair_tangent` and :func:`diagram_char`, shifted by its slots.
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


@functools.cache
def partitions(n: int) -> tuple:
    """All partitions of ``n`` as tuples of parts, largest first part first."""
    return ((),) if n == 0 else tuple(
        (k,) + p for k in range(n, 0, -1) for p in partitions(n - k) if not p or p[0] <= k
    )


def partition_tuples(ranks: Ranks, n: int) -> list:
    """All tuples of partitions with total size ``n``, in the order of
    :func:`~quotloc.vertex.slot_states`; the count is the ``q^n`` coefficient
    of ``prod_k (1 - q^k)^(-r)``."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    return [PartitionTuple(ranks, d) for d in slot_states(ranks.total, n, partitions)]


def partition_tuple_count(n: int, r: int, cap: int) -> int:
    """The partition tuples of total rank ``r`` up to size ``n``, ``sum_(m <= n) f_m`` for
    ``f = prod_k (1 - q^k)^-r``, or a number over ``cap`` once they exceed it; ``f``
    satisfies ``m f_m = r sum_(k=1..m) sigma(k) f_(m-k)``."""
    f, sigma = [1], [0]
    for m in range(1, n + 1):
        if sum(f) > cap:
            break
        sigma.append(sum(d for d in range(1, m + 1) if m % d == 0))
        f.append(r * sum(sigma[k] * f[m - k] for k in range(1, m + 1)) // m)
    return sum(f)


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


@functools.cache
def pair_template(i: int, lam_a: tuple, lam_b: tuple) -> Character:
    """``G = t_i bar(Z_b) - bar(P)``, pure ``t``: the block of slots ``a`` on line ``i`` and
    ``b`` is ``FactoredForm(G w^-1)``, ``w = w_a^-1 w_b`` (see :func:`oracle_forms`)."""
    return diagram_char(lam_b).bar() * Monomial.var(t_var(i)) - pair_tangent(lam_a, lam_b).bar()


def oracle_forms(ranks: Ranks, order: int) -> BlockTable:
    """The oracle weights as a block table over Young diagrams; its sum must
    agree coefficientwise with the intersecting-lines localization.

    Block ``(a, b, lam_a, lam_b)`` is the pair factor ``k_euler(t_i^-1 w Z_b) k_euler(-w P)``,
    ``i`` the line of slot ``a``, ``w = w_a^-1 w_b`` and ``P`` the :func:`pair_tangent`, or ``None``
    when the insertion is the zero class.  It is built as ``FactoredForm(G w^-1)`` from the
    :func:`pair_template` ``G``, and the two are equal: ``k_euler(X) = FactoredForm(bar X)`` for an
    ``X`` with no trivial weight, ``bar`` is a ring map, so the factors are
    ``FactoredForm(t_i bar(Z_b) w^-1)`` and ``FactoredForm(-bar(P) w^-1)``, and a ``FactoredForm``
    product adds characters.  Off the diagonal ``w != 1`` and ``G`` is pure ``t``, so no term of
    ``G w^-1``, ``t_i^-1 w Z_b`` or ``w P`` is trivial.  On it ``w = 1``, and the tree reads only
    ``lam_a == lam_b``: ``P(lam, lam)`` is the Hilbert-scheme tangent at ``lam``, with no trivial
    weight, so ``G`` has the trivial coefficient of ``t_i bar(Z_b)``, 1 exactly when ``lam`` holds
    the box ``t_i`` and the insertion is the zero class, else 0.  A block is defined only on the
    keys the tree reads; off them the pair factor can divide by ``1 - 1``.

    So only a diagonal block is ever ``None``, the table's :attr:`~BlockTable.tree`, reading
    diagonals first, builds no cross block of a killed tuple, and its leaves of degree ``n`` are
    the ``C(n + r - 1, r - 1)`` tuples of a column per line-1 slot and a row per line-2 slot."""
    slots = ranks.slots()

    def block(a, b, lam_a, lam_b):
        g = pair_template(slots[a][0], lam_a, lam_b)
        if a == b:
            return None if g.trivial_coefficient() else FactoredForm(g)
        return FactoredForm(g * (Monomial.var(w_var(*slots[a])) * Monomial.var(w_var(*slots[b]), -1)))

    return BlockTable(len(slots), order, partitions, block)


def block_invariants(key) -> tuple:
    """Rank and trivial coefficient of the tangent block ``w P`` of block ``key``, and the
    rank of its insertion block, read off ``Z_b`` as :func:`oracle_forms` builds it.  Only
    a diagonal block can hold the trivial weight: ``P`` is pure ``t``, and off the diagonal
    ``w != 1``."""
    a, b, lam_a, lam_b = key
    p = pair_tangent(lam_a, lam_b)
    return p.rank(), p.trivial_coefficient() if a == b else 0, diagram_char(lam_b).rank()


def plane_invariants(table: BlockTable):
    """Yield ``(diagrams, size, (rank T, trivial coefficient of T, rank I))`` for every diagram
    tuple of an :func:`oracle_forms` table's slots, order and states, the zero class included,
    in :meth:`~BlockTable.fold` order: :func:`block_invariants` summed over its slot pairs, called
    once per distinct key of the scan."""
    pairs, seen = [(a, b) for a in range(table.slots) for b in range(table.slots)], {}
    for n in range(table.order + 1):
        for lams in slot_states(table.slots, n, table.states):
            keys = [(a, b, lams[a], lams[b]) for a, b in pairs]
            for key in keys:
                if key not in seen:
                    seen[key] = block_invariants(key)
            yield lams, n, tuple(map(sum, zip(*map(seen.__getitem__, keys))))
