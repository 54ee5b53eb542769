"""The pairwise block engine against the per-fixed-point reference sums.

Every localized sum is a ``BlockTable``; the references rebuild each fixed
point's whole character (``vertex_term``, ``plane_tvir``, ``taut_char``) and
evaluate its weight.  At generic points both sides give the same series; at
degenerate points they give the same series or both raise ``PoleAtPoint``.
"""

import itertools
import random

import pytest

from quotloc.chars import (
    T1,
    T2,
    U1,
    U2,
    Monomial,
    PoleAtPoint,
    coh_euler,
    k_euler,
    substitute_halfweights,
)
from quotloc.limits import block_limit, z_via_limits
from quotloc.oracle import oracle_contribution, oracle_forms, partition_tuples, z_oracle
from quotloc.points import EvalContext, PointAssignment, seeded_point
from quotloc.rational import ZERO, rational
from quotloc.series import (
    QSeries,
    coh_variables,
    half_weight_twist,
    z_localized,
    zcoh_localized,
    zhat_localized,
)
from quotloc.suites import ranks_up_to
from quotloc.vertex import contribution, fixed_points, vertex_term

S1, S2 = ("s", 1), ("s", 2)


def reference_sum(order, items, weight, twist=lambda n: Monomial.one()):
    """The reference series as a function of the point: every fixed point's
    whole weight is built once; degree ``n`` is multiplied by ``twist(n)``."""
    forms = [[weight(x) for x in items(n)] for n in range(order + 1)]
    return lambda point: QSeries(
        sum((f.eval_point(point) for f in fs), start=ZERO) * point.monomial_value(twist(n))
        for n, fs in enumerate(forms)
    )


def ref_localized(ranks, order):
    return reference_sum(order, lambda n: fixed_points(ranks, n), contribution)


def ref_oracle(ranks, order):
    return reference_sum(order, lambda n: partition_tuples(ranks, n), oracle_contribution)


def ref_twisted(ranks, order):
    weight = lambda bn: k_euler(-substitute_halfweights(vertex_term(bn)))
    twist = lambda n: half_weight_twist(ranks, n)
    return reference_sum(order, lambda n: fixed_points(ranks, n), weight, twist)


def ref_cohomological(ranks, order):
    weight = lambda bn: coh_euler(-vertex_term(bn))
    return reference_sum(order, lambda n: fixed_points(ranks, n), weight)


def ref_limits(ranks, order):
    slots = ranks.slots()

    def weight(bn):
        limits = [
            block_limit(bn, i, j, alpha, beta)
            for (i, alpha), (j, beta) in itertools.product(slots, repeat=2)
        ]
        total = limits[0]
        for lim in limits[1:]:
            total = total * lim
        return total

    return reference_sum(order, lambda n: fixed_points(ranks, n), weight)


def plane_vars(ranks):
    return ranks.variables()


def twisted_vars(ranks):
    return (U1, U2) + ranks.w_vars()


def limit_vars(ranks):
    return (T1, T2)


# name: (engine, reference, variables, the two torus variables, framing kind)
SUMS = {
    "localized": (z_localized, ref_localized, plane_vars, (T1, T2), "w"),
    "oracle": (z_oracle, ref_oracle, plane_vars, (T1, T2), "w"),
    "twisted": (zhat_localized, ref_twisted, twisted_vars, (U1, U2), "w"),
    "cohomological": (zcoh_localized, ref_cohomological, coh_variables, (S1, S2), "v"),
    "limits": (z_via_limits, ref_limits, limit_vars, (T1, T2), None),
}


def outcome(fn):
    try:
        return fn()
    except PoleAtPoint:
        return "pole"


@pytest.mark.parametrize("name", sorted(SUMS))
def test_engine_equals_reference_at_seeded_points(name):
    engine, reference, variables = SUMS[name][:3]
    order = 3 if name == "oracle" else 4
    for ranks in ranks_up_to(3):
        ctx = EvalContext.at_seed(variables(ranks), 40 + ranks.total, order)
        assert engine(ranks, ctx) == reference(ranks, order)(ctx.point), ranks


def degenerate_points(name, ranks):
    """``t1 t2 = 1``, ``w11 = w12`` and ``w11 = t1 w21`` (on the first two
    slots), then random points with every value drawn from a five-element
    set, so that coincidences are frequent.  In cohomology the relations are
    linear (``s1 + s2 = 0``, ``v = s1 + v'``); in ``u`` variables ``t = u^2``."""
    _, _, variables, (x1, x2), kind = SUMS[name]
    coh = kind == "v"
    base = seeded_point(variables(ranks), 7)
    inverse = rational(-2, 3) if coh else rational(3, 2)  # of x1 = 2/3
    yield base.with_values({x1: rational(2, 3), x2: inverse})
    slots = ranks.slots()
    if kind and len(slots) >= 2:
        wa, wb = ((kind,) + slot for slot in slots[:2])
        yield base.with_values({wa: base.value(wb)})
        t1, w = base.value(x1), base.value(wb)
        yield base.with_values({wa: t1 + w if coh else t1 ** (2 if x1 == U1 else 1) * w})
    pool = [rational(2, 3), inverse, rational(2), rational(1, 2), rational(-1)]
    rng = random.Random(ranks.total * 10 + ranks.r1)
    for _ in range(2):
        yield PointAssignment({v: rng.choice(pool) for v in variables(ranks)})


@pytest.mark.parametrize("name", sorted(SUMS))
def test_engine_matches_reference_at_degenerate_points(name):
    engine, reference = SUMS[name][:2]
    order = 3
    poles = cases = 0
    for ranks in ranks_up_to(3):
        at = reference(ranks, order)
        for point in degenerate_points(name, ranks):
            got = outcome(lambda: engine(ranks, EvalContext(point, 0, order)))
            want = outcome(lambda: at(point))
            assert got == want, (ranks, point)
            cases += 1
            poles += want == "pole"
    assert 0 < poles < cases


def test_oracle_block_products_equal_oracle_contribution():
    """Symbolically, the product of a diagram tuple's pair factors is its
    whole weight, and ``None`` exactly for the zero class."""
    for ranks in ranks_up_to(3):
        table = oracle_forms(ranks, 4)
        for n in range(5):
            for tup in partition_tuples(ranks, n):
                want = oracle_contribution(tup)
                got = table.fixed_point_weight(tup.diagrams)
                assert (got is None) if want.is_zero else got == want
