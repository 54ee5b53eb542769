"""q-series arithmetic, the plethystic exponential and the partition
functions with their closed forms."""

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotloc import series
from quotloc.chars import Character, FactoredForm, Monomial, PoleAtPoint, T1, T2, pair_value, u_var
from quotloc.limits import limit_table, slot_shifts
from quotloc.points import PointAssignment, seeded_point
from quotloc.rational import rational
from quotloc.series import (
    DiagonalPoint,
    QSeries,
    coh_variables,
    cy_first_order,
    cy_first_order_closed,
    cy_order,
    diagonal_power,
    euler_char_series,
    eval_forms,
    half_weight_twist,
    localized_forms,
    plethystic_exp,
    single_box,
    twisted_point,
    z_closed,
    z_rank1_product,
    zcoh_closed,
    zhat_closed,
)
from quotloc.suites import ranks_up_to, suite_cy_vanishing
from quotloc.vertex import Ranks, contribution, fixed_points

from strategies import nonzero_rationals


def localized_at(ranks, point, order):
    return eval_forms(localized_forms(ranks, order), point)


def twisted_at(ranks, point, order):
    twist = pair_value(*point.monomial_pair(half_weight_twist(ranks)))
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
        # the plethystic exponential of f = 1 is exp(sum q^k/k) = 1/(1-q)
        assert plethystic_exp(lambda k: rational(1), 6).coefficients == tuple(rational(1) for _ in range(7))

    def test_scale_q(self):
        s = QSeries([1, 1, 1]).scale_q(rational(3))
        assert s.coefficients == (1, 3, 9)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            QSeries([1, 2]) * QSeries([1])

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
    """The binomial series ``(1/(1-q))^c`` is the plethystic exponential of the constant ``c``."""

    def test_half(self):
        assert plethystic_exp(lambda k: rational(1, 2), 3).coefficient(2) == rational(3, 8)

    @given(st.integers(1, 6), st.integers(0, 8))
    def test_against_comb(self, c, n):
        # independent oracle: (1/(1-q))^c has coefficients C(n+c-1, n)
        assert plethystic_exp(lambda k: rational(c), n).coefficient(n) == math.comb(n + c - 1, n)


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

    @pytest.mark.parametrize("t2", [1, -1])
    def test_pole_raises_pole_at_point(self, t2):
        """``1 - t2^a`` vanishes at ``t2 = 1`` (``a = 1``) and ``t2 = -1`` (``a = 2``): the
        one pole the retry protocol catches."""
        with pytest.raises(PoleAtPoint):
            z_rank1_product(t_point(t1=2, t2=t2), 2)


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


# The closed sides as the paper states them, independent of ``single_box``.


def closed_g(ranks, a, b):
    """The single-box term without its ``(1 - t1 t2)`` factor at ``t1 = a``, ``t2 = b``."""
    return (1 - a**ranks.r1 * b**ranks.r2) / ((1 - a) * (1 - b))


def z_reference(ranks, point, order):
    t1, t2 = point.value(T1), point.value(T2)
    return plethystic_exp(lambda k: (1 - (t1 * t2) ** k) * closed_g(ranks, t1**k, t2**k), order)


def zhat_reference(ranks, point, order):
    """``q [t1 t2][t1^r1 t2^r2] / ([t1][t2])`` with ``[x] = x^(1/2) - x^(-1/2)``, ``t_i = u_i^2``."""
    u1, u2 = point.value(u_var(1)), point.value(u_var(2))

    def bracket(x):
        return x - 1 / x

    def f(k):
        a, b = u1**k, u2**k
        return bracket(a * b) * bracket(a**ranks.r1 * b**ranks.r2) / (bracket(a) * bracket(b))

    return plethystic_exp(f, order)


def zcoh_reference(ranks, point, order):
    """``(1/(1-q))^c`` with ``c = (s1 + s2)(r1 s1 + r2 s2) / (s1 s2)``."""
    s1, s2 = point.value(("s", 1)), point.value(("s", 2))
    c = (s1 + s2) * (ranks.r1 * s1 + ranks.r2 * s2) / (s1 * s2)
    return plethystic_exp(lambda k: c, order)


class TestSingleBox:
    @pytest.mark.parametrize("ranks", ranks_up_to(4), ids=lambda r: f"{r.r1},{r.r2}")
    def test_closed_sides_equal_their_references(self, ranks):
        """Every closed side read off the single box equals the formula the
        paper states, at three seeded points of each kind, up to ``q^6``."""
        for seed in (1, 2, 3):
            point = seeded_point(ranks.variables(), seed)
            assert z_closed(ranks, point, 6) == z_reference(ranks, point, 6)
            point = seeded_point((u_var(1), u_var(2)) + ranks.w_vars(), seed)
            assert zhat_closed(ranks, point, 6) == zhat_reference(ranks, point, 6)
            point = seeded_point(coh_variables(ranks), seed)
            assert zcoh_closed(ranks, point, 6) == zcoh_reference(ranks, point, 6)
            rest = seeded_point((T2,) + ranks.w_vars(), seed)
            t2 = rest.value(T2)
            for n in range(1, 7):
                assert cy_first_order_closed(ranks, n, rest) == closed_g(ranks, (1 / t2) ** n, t2**n)

    def test_slot_shifts_telescope_to_the_framing_factor(self):
        """``1 - t1^r1 t2^r2 = sum_a shift_a (1 - t_i)`` over the slots ``(i, a)``
        and their :func:`~quotloc.limits.slot_shifts`, as characters, for every
        rank pair of total rank <= 8: the factorization's q-shifts sum to the
        box's framing factor, its factors other than ``1 - t1 t2``,
        ``(1 - t1)^-1`` and ``(1 - t2)^-1``."""
        one = Character.one()
        t = {1: Monomial.var(T1), 2: Monomial.var(T2)}
        rest = Character([(t[1] * t[2], 1), (t[1], -1), (t[2], -1)])
        for ranks in ranks_up_to(8):
            framing = Character.from_monomial(ranks.framing())
            assert single_box(ranks.framing()).character - rest == framing, ranks
            shifted = Character.zero()
            for (i, _a), shift in zip(ranks.slots(), slot_shifts(ranks)):
                shifted = shifted + (one - Character.from_monomial(t[i])) * shift
            assert shifted == one - framing, ranks


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


def cy_orders(ranks, order):
    """``ord_D`` of every fixed point up to ``order``, from its merged weight."""
    return {
        bn.lengths: cy_order(contribution(bn)) for n in range(order + 1) for bn in fixed_points(ranks, n)
    }


def first_order_sides(ranks, n, seed):
    rest = seeded_point((T2,) + ranks.w_vars(), seed)
    localized = cy_first_order(localized_forms(ranks, n), cy_orders(ranks, n), rest)
    return localized[n], cy_first_order_closed(ranks, n, rest)


def split_first_order(form, rest):
    """The reference first-order value of a merged weight: each diagonal
    factor ``(1 - (t1 t2)^k)^c`` gives ``k^c``, and the form of the other
    factors is evaluated at ``t1 = 1/t2``."""
    scale, others = rational(1), []
    for m, c in form.factors():
        k = diagonal_power(m)
        if k:
            scale *= rational(k) ** c
        else:
            others.append((m, c))
    return scale * FactoredForm(others).eval_point(rest.with_values({T1: 1 / rest.value(T2)}))


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
        assert form.eval_point(DiagonalPoint(seeded_point((T2,), 3))) == 4

    def test_diagonal_point_equals_split_reference(self):
        """Every merged weight of total rank <= 3 and degree <= 4 takes at a
        :class:`DiagonalPoint` its split reference value, and each entry of
        ``cy_first_order`` is the sum of the references of its order-1 weights."""
        for ranks in ranks_up_to(3):
            rest = seeded_point((T2,) + ranks.w_vars(), 3 + 10 * ranks.r1 + ranks.r2)
            point, forms = DiagonalPoint(rest), {}
            for n in range(5):
                forms.update((bn.lengths, contribution(bn)) for bn in fixed_points(ranks, n))
            orders = {states: cy_order(form) for states, form in forms.items()}
            got, want = cy_first_order(localized_forms(ranks, 4), orders, rest), [0] * 5
            for states, form in forms.items():
                reference = split_first_order(form, rest)
                assert form.eval_point(point) == reference, (ranks, states)
                want[sum(states)] += reference if orders[states] == 1 else 0
            assert got == want, ranks


class TestEvalFormsPlumbing:
    def test_localized_forms_shape(self):
        table = localized_forms(Ranks(2, 1), 3)
        assert (table.slots, table.order) == (3, 3)
        products = {bn: w for bn, _, w in table.fold(lambda w: w, operator.mul, FactoredForm.one())}
        for n in range(4):
            for bn in fixed_points(Ranks(2, 1), n):
                assert products[bn.lengths] == contribution(bn)

    def test_no_weight_is_merged(self, monkeypatch):
        """Evaluation and the cy-vanishing suite multiply block values, never
        factored forms.  On ``t1 t2 = 1`` every weight of positive degree is
        0, and the line and limit tables still sum to 1 there."""

        def merge(self, other):
            raise AssertionError("a fixed point's weight was merged")

        monkeypatch.setattr(FactoredForm, "__mul__", merge)
        for ranks in (Ranks(1, 1), Ranks(2, 1)):
            point = full_point(ranks).with_values({T1: rational(2, 3), T2: rational(3, 2)})
            for table in (localized_forms(ranks, 3), limit_table(ranks, 3)):
                assert eval_forms(table, point) == QSeries.one(3)
        report = suite_cy_vanishing(max_len=3)
        assert report.passed and report.checks == 81

    def test_one_pair_value_per_degree(self, monkeypatch):
        """Each degree is summed as unreduced pairs and made a value once:
        ``eval_forms`` calls ``pair_value`` ``order + 1`` times, and so does
        ``cy_first_order`` at most, however many fixed points a degree has."""
        calls = []

        def counted(n, d):
            calls.append((n, d))
            return pair_value(n, d)

        monkeypatch.setattr(series, "pair_value", counted)
        ranks, order = Ranks(2, 1), 6
        table = localized_forms(ranks, order)
        eval_forms(table, full_point(ranks))
        assert len(calls) == order + 1
        calls.clear()
        orders = {states: o for states, _, o in table.fold(cy_order, operator.add, 0)}
        cy_first_order(table, orders, seeded_point((T2,) + ranks.w_vars(), 5))
        assert 0 < len(calls) <= order + 1
