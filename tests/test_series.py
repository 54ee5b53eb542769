"""q-series arithmetic, the plethystic exponential and the partition
functions with their closed forms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotloc.chars import FactoredForm, Monomial, T1, T2, u_var
from quotloc.points import PointAssignment, seeded_point
from quotloc.rational import rational
from quotloc.series import (
    QSeries,
    binom_series,
    coh_variables,
    cy_first_order,
    cy_first_order_closed,
    cy_order,
    euler_char_series,
    eval_forms,
    half_weight_twist,
    localized_forms,
    plethystic_exp,
    twisted_point,
    z_closed,
    z_rank1_product,
    zcoh_closed,
    zhat_closed,
)
from quotloc.suites import ranks_up_to
from quotloc.vertex import Ranks, contribution, fixed_points

from strategies import nonzero_rationals


def localized_at(ranks, point, order):
    return eval_forms(localized_forms(ranks, order), point)


def twisted_at(ranks, point, order):
    twist = point.monomial_value(half_weight_twist(ranks))
    return eval_forms(localized_forms(ranks, order), twisted_point(point)).scale_q(twist)


def coh_at(ranks, point, order):
    return eval_forms(localized_forms(ranks, order), point.linearized())


def t_point(seed=1, t1=None, t2=None):
    point = seeded_point((T1, T2), seed)
    if t1 is not None:
        point = point.with_values({T1: rational(t1), T2: rational(t2)})
    return point


def full_point(ranks, seed=1):
    return seeded_point(ranks.variables(), seed)


class TestQSeries:
    def test_mul_truncates(self):
        a = QSeries([1, 1, 1])
        b = QSeries([1, 2, 3])
        assert (a * b).coefficients == (1, 3, 6)

    def test_exp_of_geometric_log(self):
        # exp(sum q^k/k) = 1/(1-q)
        s = QSeries([rational(0)] + [rational(1, k) for k in range(1, 7)])
        assert s.exp().coefficients == tuple(rational(1) for _ in range(7))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            QSeries([1, 2]).exp()

    def test_scale_q(self):
        s = QSeries([1, 1, 1]).scale_q(rational(3))
        assert s.coefficients == (1, 3, 9)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            QSeries([1, 2]) + QSeries([1])

    @given(st.lists(nonzero_rationals(), min_size=1, max_size=5),
           st.lists(nonzero_rationals(), min_size=1, max_size=5))
    def test_mul_commutes(self, a, b):
        n = min(len(a), len(b))
        s, t = QSeries(a[:n]), QSeries(b[:n])
        assert s * t == t * s


class TestPlethysticExp:
    def test_constant_one_gives_geometric(self):
        s = plethystic_exp(lambda k: rational(1), 6)
        assert s.coefficients == tuple(rational(1) for _ in range(7))

    def test_doubling_squares(self):
        s = plethystic_exp(lambda k: rational(2), 6)
        assert [int(c) for c in s.coefficients] == list(range(1, 8))
        one = plethystic_exp(lambda k: rational(1), 6)
        assert s == one * one

    def test_zero(self):
        assert plethystic_exp(lambda k: rational(0), 5) == QSeries.one(5)


class TestBinomSeries:
    def test_integer_exponents(self):
        assert binom_series(rational(1), 5).coefficients == tuple(
            rational(1) for _ in range(6)
        )
        assert [int(c) for c in binom_series(rational(2), 5).coefficients] == [
            1, 2, 3, 4, 5, 6,
        ]

    def test_half(self):
        assert binom_series(rational(1, 2), 3).coefficient(2) == rational(3, 8)

    @given(st.integers(1, 6), st.integers(0, 8))
    def test_against_comb(self, c, n):
        # independent oracle: (1/(1-q))^c has coefficients C(n+c-1, n)
        assert binom_series(rational(c), n).coefficient(n) == math.comb(n + c - 1, n)


class TestLocalizedVsClosed:
    def test_rank10_coefficient_formula(self):
        point = full_point(Ranks(1, 0), seed=2)
        t1, t2 = point.value(T1), point.value(T2)
        z = localized_at(Ranks(1, 0), point, 1)
        assert z.coefficient(0) == 1
        assert z.coefficient(1) == (1 - t1 * t2) / (1 - t2)

    def test_rank11_coefficient_at_2_3(self):
        # hand-derived: the w-dependence cancels in the degree-1 sum and
        # leaves (1 - t1 t2)^2 / ((1 - t1)(1 - t2)) = 25/2 at (2, 3)
        ranks = Ranks(1, 1)
        point = seeded_point(ranks.variables(), 1).with_values(
            {T1: rational(2), T2: rational(3)}
        )
        z = localized_at(ranks, point, 1)
        assert z.coefficient(1) == rational(25, 2)

    @pytest.mark.parametrize("r1,r2", [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_equality(self, r1, r2):
        ranks = Ranks(r1, r2)
        point = full_point(ranks, seed=3)
        assert localized_at(ranks, point, 4) == z_closed(ranks, point, 4)

    def test_t_swap_symmetry(self):
        a = Ranks(2, 1)
        point_a = full_point(a, seed=5)
        t1v, t2v = point_a.value(T1), point_a.value(T2)
        b = Ranks(a.r2, a.r1)
        swapped_point = seeded_point(b.variables(), 5).with_values(
            {T1: t2v, T2: t1v}
        )
        assert localized_at(a, point_a, 4) == localized_at(b, swapped_point, 4)

    def test_framing_values_do_not_matter(self):
        ranks = Ranks(2, 1)
        base = full_point(ranks, seed=9)
        moved = base.with_values({v: base.value(v) * rational(7, 5) for v in ranks.w_vars()})
        assert localized_at(ranks, base, 3) == localized_at(ranks, moved, 3)


class TestRank1Product:
    def test_first_coefficients(self):
        z = z_rank1_product(t_point(t1=2, t2=3), 2)
        assert z.coefficient(0) == 1
        assert z.coefficient(1) == rational(5, 2)
        assert z.coefficient(2) == rational(85, 16)

    def test_matches_closed_form(self):
        point = t_point(seed=6)
        assert z_rank1_product(point, 8) == z_closed(Ranks(1, 0), point, 8)


class TestTwistedSeries:
    def test_hand_value(self):
        ranks = Ranks(1, 0)
        point = PointAssignment(
            {u_var(1): rational(2), u_var(2): rational(3), ("w", 1, 1): rational(5, 7)}
        )
        z = twisted_at(ranks, point, 1)
        assert z.coefficient(1) == rational(35, 16)

    @pytest.mark.parametrize("r1,r2", [(1, 0), (1, 1), (2, 1)])
    def test_localized_equals_closed(self, r1, r2):
        ranks = Ranks(r1, r2)
        u_vars = (u_var(1), u_var(2)) + ranks.w_vars()
        point = seeded_point(u_vars, 4)
        assert twisted_at(ranks, point, 4) == zhat_closed(ranks, point, 4)


class TestCohomologicalSeries:
    def test_rank10_coefficient(self):
        ranks = Ranks(1, 0)
        point = seeded_point(coh_variables(ranks), 2)
        s1, s2 = point.value(("s", 1)), point.value(("s", 2))
        z = coh_at(ranks, point, 1)
        assert z.coefficient(1) == (s1 + s2) / s2

    def test_rank11_coefficient_is_square(self):
        ranks = Ranks(1, 1)
        point = seeded_point(coh_variables(ranks), 3)
        s1, s2 = point.value(("s", 1)), point.value(("s", 2))
        z = coh_at(ranks, point, 1)
        assert z.coefficient(1) == (s1 + s2) ** 2 / (s1 * s2)

    @pytest.mark.parametrize("r1,r2", [(1, 0), (1, 1), (2, 1)])
    def test_localized_equals_binomial(self, r1, r2):
        ranks = Ranks(r1, r2)
        point = seeded_point(coh_variables(ranks), 8)
        assert coh_at(ranks, point, 4) == zcoh_closed(ranks, point, 4)


class TestEulerCharSeries:
    def test_values(self):
        assert [int(c) for c in euler_char_series(Ranks(0, 1), 5).coefficients] == [1] * 6
        assert [int(c) for c in euler_char_series(Ranks(1, 1), 4).coefficients] == [
            1, 2, 3, 4, 5,
        ]
        assert euler_char_series(Ranks(2, 1), 3).coefficient(3) == 10

    @given(st.integers(1, 4), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_counts_fixed_points(self, r, n):
        ranks = Ranks(1, r - 1) if r > 1 else Ranks(0, 1)
        assert euler_char_series(ranks, n).coefficient(n) == len(
            fixed_points(ranks, n)
        )


def weights(ranks, n):
    return [contribution(bn) for bn in fixed_points(ranks, n)]


def first_order_sides(ranks, n, seed):
    rest = seeded_point((T2,) + ranks.w_vars(), seed)
    return cy_first_order(weights(ranks, n), rest), cy_first_order_closed(ranks, n, rest)


class TestCyVanishing:
    def test_rank11_certificate(self):
        localized, closed = first_order_sides(Ranks(1, 1), 1, 13)
        assert localized == closed

    def test_degree_zero_is_one(self):
        for ranks in ranks_up_to(3):
            (weight,) = weights(ranks, 0)
            assert weight == FactoredForm.one() and cy_order(weight) == 0

    def test_positive_degrees_vanish_on_locus(self):
        for ranks in ranks_up_to(3):
            for n in range(1, 6):
                assert min(cy_order(w) for w in weights(ranks, n)) >= 1, (ranks, n)

    @pytest.mark.parametrize("r1,r2", [(2, 1), (1, 2), (3, 0)])
    def test_higher_rank(self, r1, r2):
        localized, closed = first_order_sides(Ranks(r1, r2), 2, 5)
        assert localized == closed

    def test_first_order_hand_value(self):
        """Rank (1,0), n = 1: the weight ``(1 - t1 t2)/(1 - t2)`` leaves
        ``1/(1 - t2)`` on the locus, and so does ``G(t1, t2)``."""
        t2 = seeded_point((T2,), 21).value(T2)
        assert first_order_sides(Ranks(1, 0), 1, 21) == (1 / (1 - t2),) * 2

    def test_diagonal_factor_counts_its_power(self):
        """``(1 - (t1 t2)^-2)^2 / (1 - t1 t2)`` has order 1 and leaves
        ``(-2)^2 = 4`` on the locus."""
        x = Monomial([(T1, 1), (T2, 1)])
        form = FactoredForm([(x**-2, 2), (x, -1)])
        assert cy_order(form) == 1
        assert cy_first_order([form], seeded_point((T2,), 3)) == 4


class TestEvalFormsPlumbing:
    def test_localized_forms_shape(self):
        table = localized_forms(Ranks(2, 1), 3)
        assert (table.slots, table.order) == (3, 3)
        for n in range(4):
            for bn in fixed_points(Ranks(2, 1), n):
                assert table.fixed_point_weight(bn.lengths) == contribution(bn)
