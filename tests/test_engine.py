"""The pairwise block engine against the per-fixed-point reference sums.

Every localized sum is a ``BlockTable``, built once per rank pair and
evaluated through ``eval_forms``; the references rebuild each fixed
point's whole character (``vertex_term``, ``plane_tvir``, ``taut_char``) and
evaluate its weight.  At generic points both sides give the same series; at
degenerate points they give the same series or both raise ``PoleAtPoint``.
The symbolic invariants folded over a table's blocks (ranks, trivial
coefficient, det) equal those of the whole characters.

The references evaluate weights in ``Fraction`` straight from the point's
coordinates (``fraction_eval``), not through the integer pairs of
``eval_pair``, and a property test holds ``eval_point`` to that evaluator.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quotloc.chars import (
    T1,
    T2,
    U1,
    U2,
    FactoredForm,
    Monomial,
    PoleAtPoint,
)
from quotloc.limits import LimitValue, block_limit, limit_table
from quotloc.oracle import (
    oracle_contribution,
    oracle_forms,
    partition_tuples,
    plane_invariants,
    plane_tvir,
    taut_char,
)
from quotloc.points import LinearPoint, PointAssignment, seeded_point
from quotloc.rational import rational
from quotloc.series import (
    QSeries,
    coh_variables,
    eval_forms,
    half_weight_twist,
    localized_forms,
    twisted_point,
    weight_det,
)
from quotloc.suites import ranks_up_to
from quotloc.vertex import contribution, fixed_points, vertex_term

from strategies import VARS, monomials, nonzero_rationals

S1, S2 = ("s", 1), ("s", 2)
LINEAR_KIND = {"t": "s", "w": "v"}


def fraction(q):
    return Fraction(int(q.numerator), int(q.denominator))


def fraction_monomial(point, m):
    """``m(p)`` in ``Fraction``, from ``point.value``; ``1 + mu . s`` at a
    :class:`LinearPoint`."""
    if isinstance(point, LinearPoint):
        return 1 + sum(
            (e * fraction(point.value((LINEAR_KIND[v[0]],) + v[1:])) for v, e in m.exponents()),
            start=Fraction(0),
        )
    return math.prod((fraction(point.value(v)) ** e for v, e in m.exponents()), start=Fraction(1))


def fraction_eval(weight, point):
    """A weight's value at a point, multiplying ``(1 - m(p))^c`` in
    ``Fraction``; a vanishing factor with ``c < 0`` raises ``PoleAtPoint``
    whatever else vanishes."""
    if isinstance(weight, LimitValue):
        scale = weight.sign * fraction_monomial(point, weight.monomial)
        return scale * fraction_eval(weight.factors, point)
    if weight.is_zero:
        return Fraction(0)
    values = [(1 - fraction_monomial(point, m), c) for m, c in weight.factors()]
    if any(not f and c < 0 for f, c in values):
        raise PoleAtPoint("a denominator factor vanishes")
    return math.prod((f**c for f, c in values), start=Fraction(1))


def same(point):
    return point


def reference_sum(order, items, weight, at=same, twist=lambda n: Monomial.one()):
    """The reference series as a function of the point: every fixed point's
    whole weight is built once and evaluated at ``at(point)``; degree ``n``
    is multiplied by ``twist(n)`` at the point itself."""
    forms = [[weight(x) for x in items(n)] for n in range(order + 1)]

    def series(point):
        here = at(point)
        return QSeries(
            sum((fraction_eval(f, here) for f in fs), start=Fraction(0))
            * fraction_monomial(point, twist(n))
            for n, fs in enumerate(forms)
        )

    return series


def ref_localized(ranks, order):
    return reference_sum(order, lambda n: fixed_points(ranks, n), contribution)


def ref_oracle(ranks, order):
    return reference_sum(order, lambda n: partition_tuples(ranks, n), oracle_contribution)


def ref_twisted(ranks, order):
    twist = lambda n: half_weight_twist(ranks) ** n
    return reference_sum(
        order, lambda n: fixed_points(ranks, n), contribution, twisted_point, twist
    )


def ref_cohomological(ranks, order):
    return reference_sum(
        order, lambda n: fixed_points(ranks, n), contribution, PointAssignment.linearized
    )


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


def evaluated(builder, at=same):
    """The engine side of a sum: its table, built once, evaluated through
    ``eval_forms`` at ``at(point)``."""

    def sum_at(ranks, order):
        table = builder(ranks, order)
        return lambda point: eval_forms(table, at(point))

    return sum_at


def twisted_sum(ranks, order):
    untwisted = evaluated(localized_forms, twisted_point)(ranks, order)
    twist = half_weight_twist(ranks)
    return lambda point: untwisted(point).scale_q(point.monomial_value(twist))


def plane_vars(ranks):
    return ranks.variables()


def twisted_vars(ranks):
    return (U1, U2) + ranks.w_vars()


def limit_vars(ranks):
    return (T1, T2)


# name: (engine, reference, variables, the two torus variables, framing kind)
SUMS = {
    "localized": (evaluated(localized_forms), ref_localized, plane_vars, (T1, T2), "w"),
    "oracle": (evaluated(oracle_forms), ref_oracle, plane_vars, (T1, T2), "w"),
    "twisted": (twisted_sum, ref_twisted, twisted_vars, (U1, U2), "w"),
    "cohomological": (
        evaluated(localized_forms, PointAssignment.linearized),
        ref_cohomological, coh_variables, (S1, S2), "v",
    ),
    "limits": (evaluated(limit_table), ref_limits, limit_vars, (T1, T2), None),
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
        point = seeded_point(variables(ranks), 40 + ranks.total)
        assert engine(ranks, order)(point) == reference(ranks, order)(point), ranks


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
        engine_at, reference_at = engine(ranks, order), reference(ranks, order)
        for point in degenerate_points(name, ranks):
            got = outcome(lambda: engine_at(point))
            want = outcome(lambda: reference_at(point))
            assert got == want, (ranks, point)
            cases += 1
            poles += want == "pole"
    assert 0 < poles < cases


POOL = st.sampled_from([rational(1), rational(-1)])
LINEAR_VARS = tuple((LINEAR_KIND[v[0]],) + v[1:] for v in VARS)


def assignments(variables, values):
    return st.fixed_dictionaries({v: values for v in variables}).map(PointAssignment)


# values from a small pool make factors vanish often; the other values range
# over both signs
POINTS = st.one_of(
    st.integers(0, 2**32).map(lambda seed: seeded_point(VARS, seed)),
    assignments(VARS, POOL),
    assignments(VARS, nonzero_rationals()),
    assignments(LINEAR_VARS, POOL).map(PointAssignment.linearized),
    assignments(LINEAR_VARS, nonzero_rationals()).map(PointAssignment.linearized),
)
MULTIPLICITIES = st.sampled_from((-3, -2, -1, 1, 2, 3))
FORMS = st.builds(
    FactoredForm,
    st.lists(st.tuples(monomials(-3, 3, allow_trivial=False), MULTIPLICITIES), max_size=6),
    is_zero=st.sampled_from((False,) * 9 + (True,)),  # the zero class, now and then
)


def same_outcome(form, point):
    got = outcome(lambda: form.eval_point(point))
    want = outcome(lambda: fraction_eval(form, point))
    assert got == want
    return want


@given(FORMS, POINTS)
@settings(max_examples=300)
def test_eval_point_equals_fraction_reference(form, point):
    """``eval_point`` (integer pairs, one normalisation) equals the
    ``Fraction`` evaluator, and raises ``PoleAtPoint`` exactly when it does."""
    want = same_outcome(form, point)
    event("pole" if want == "pole" else "zero" if not want else "nonzero")


@pytest.mark.parametrize("numerator_first", [True, False])
def test_pole_wins_over_a_vanishing_numerator_factor(numerator_first):
    """A form with a vanishing numerator factor and a vanishing denominator
    factor has a pole, whichever factor comes first; without the denominator
    factor it is 0."""
    t1, w11 = Monomial.var(T1), Monomial.var(("w", 1, 1))
    cases = (
        ([(t1, 2), (w11, -1)], PointAssignment({T1: rational(1), ("w", 1, 1): rational(1)})),
        (
            [(t1 * Monomial.var(T2), 1), (t1 * w11.inverse(), -2)],
            PointAssignment({S1: rational(2), S2: rational(-2), ("v", 1, 1): rational(2)}).linearized(),
        ),
    )
    for factors, point in cases:
        numerator, denominator = factors
        ordered = [numerator, denominator] if numerator_first else [denominator, numerator]
        assert same_outcome(FactoredForm(ordered), point) == "pole"
        assert same_outcome(FactoredForm([numerator]), point) == 0


def folded_once(table, value, combine, start, items):
    """``table.fold`` as a map ``states -> acc``, after checking that it
    yields each element of ``items(n)`` exactly once, at degree ``n``."""
    folded = list(table.fold(value, combine, start))
    for n in range(table.order + 1):
        got = [states for states, size, _ in folded if size == n]
        assert len(got) == len(set(got)) and set(got) == set(items(n)), n
    return {states: acc for states, _, acc in folded}


def test_oracle_block_products_equal_oracle_contribution():
    """Symbolically, the product of a diagram tuple's pair factors is its
    whole weight, and ``None`` exactly for the zero class; the ranks and the
    trivial coefficient folded over the blocks are those of ``plane_tvir``
    and ``taut_char``."""
    for ranks in ranks_up_to(3):
        table = oracle_forms(ranks, 4)
        folded = {diagrams: acc for diagrams, _, acc in plane_invariants(table)}
        assert len(folded) == sum(len(partition_tuples(ranks, n)) for n in range(5))
        for n in range(5):
            for tup in partition_tuples(ranks, n):
                want = oracle_contribution(tup)
                got = table.fixed_point_weight(tup.diagrams)
                assert (got is None) if want.is_zero else got == want
                tvir = plane_tvir(tup)
                assert folded[tup.diagrams] == (
                    tvir.rank(), tvir.trivial_coefficient(), taut_char(tup).rank()
                )


def test_folded_det_equals_vertex_term_det():
    """The det folded over the blocks of a localized table is
    ``vertex_term(bn).det()``, for total rank <= 4 and size <= 4; the fold
    yields every fixed point (and, on the oracle table, every diagram
    tuple) exactly once, at its degree."""
    for ranks in ranks_up_to(4):
        table = localized_forms(ranks, 4)
        dets = folded_once(
            table,
            lambda key: weight_det(table.weight(*key)),
            lambda x, y: x * y,
            Monomial.one(),
            lambda n: [bn.lengths for bn in fixed_points(ranks, n)],
        )
        for n in range(5):
            for bn in fixed_points(ranks, n):
                assert dets[bn.lengths] == vertex_term(bn).det(), bn
    for ranks in ranks_up_to(3):
        plane = oracle_forms(ranks, 4)
        folded_once(
            plane,
            lambda key: 1,
            lambda x, y: x + y,
            0,
            lambda n: [tup.diagrams for tup in partition_tuples(ranks, n)],
        )
