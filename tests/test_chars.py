"""Character algebra: monomials, the bar involution, the Euler operator
and its evaluation at K-theoretic, half-weight and cohomological points."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quotloc.chars import (
    Character,
    FactoredForm,
    Monomial,
    PoleAtPoint,
    T1,
    T2,
    U1,
    U2,
    TrivialDenominator,
    k_euler,
    pair_value,
    u_var,
    w_var,
)
from quotloc.points import PointAssignment, seeded_point
from quotloc.rational import rational
from quotloc.series import twisted_point

from strategies import VARS, characters, monomials, nonzero_rationals

t1 = Monomial.var(T1)
t2 = Monomial.var(T2)
w11 = Monomial.var(w_var(1, 1))


def char(*terms):
    return Character(terms)


def value(point, m):
    """``m(p)`` as one exact rational."""
    return pair_value(*point.monomial_pair(m))


class TestMonomial:
    def test_canonical_form_drops_zero_exponents(self):
        assert Monomial({T1: 0, T2: 3}) == Monomial({T2: 3})
        assert Monomial({T1: 0}).is_one

    def test_product_and_inverse(self):
        m = t1 * t2**-2
        assert m * m.inverse() == Monomial.one()
        assert (t1 * t1.inverse()).is_one

    def test_pow(self):
        assert t1**3 == Monomial({T1: 3})
        assert t1**0 == Monomial.one()
        assert (t1 * t2) ** 0 == Monomial.one() and ((t1 * t2) ** 0).is_one

    def test_repeated_variable_adds_up(self):
        """An iterable naming a variable twice is the product of its entries."""
        assert Monomial([(T1, 1), (T1, -1)]) == Monomial.one()
        assert Monomial([(T1, 1), (T1, -1)]).is_one
        assert repr(Monomial([(T1, 1), (T1, -1)])) == "1"
        assert Monomial([(T1, 1), (T1, 2)]) == Monomial({T1: 3})
        assert Monomial([(T2, 2), (T1, 1), (T2, -1)]).exponents() == ((T1, 1), (T2, 1))

    @given(st.lists(st.tuples(st.sampled_from((T1, T2, w_var(1, 1))), st.integers(-3, 3))))
    def test_iterable_is_the_product_of_its_entries(self, entries):
        want = Monomial.one()
        for v, e in entries:
            want = want * Monomial.var(v, e)
        got = Monomial(entries)
        assert got == want and hash(got) == hash(want)
        assert got.is_one == (repr(got) == "1")

    @given(monomials(), monomials())
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(monomials())
    def test_hash_consistent(self, m):
        assert hash(m) == hash(Monomial(dict(m.exponents())))


class TestBar:
    def test_fixes_trivial(self):
        assert Character.one().bar() == Character.one()

    def test_inverts_single_variable(self):
        assert char((t1, 1)).bar() == char((t1.inverse(), 1))

    def test_linear_extension(self):
        c = char((t1 * t2, 2), (w11, -1))
        assert c.bar() == char(((t1 * t2).inverse(), 2), (w11.inverse(), -1))

    @given(characters())
    def test_involution(self, c):
        assert c.bar().bar() == c

    @given(characters(), characters())
    def test_ring_map(self, a, b):
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()


class TestCharacterArithmetic:
    @given(characters(), characters(), characters())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(characters(), characters())
    def test_rank_additive(self, a, b):
        assert (a + b).rank() == a.rank() + b.rank()
        assert (a * b).rank() == a.rank() * b.rank()

    def test_det(self):
        c = char((t2.inverse(), 1), ((t1 * t2).inverse(), -1))
        assert c.det() == t1
        assert Character.zero().det() == Monomial.one()


class TestKEuler:
    def test_single_weight(self):
        assert k_euler(char((t1, 1))) == FactoredForm([(t1.inverse(), 1)])

    def test_quotient(self):
        f = k_euler(char((t1, 1), (t2, -1)))
        assert f == FactoredForm([(t1.inverse(), 1), (t2.inverse(), -1)])

    def test_trivial_numerator_is_zero(self):
        assert k_euler(Character.one() + char((t1, 1))) is None

    @given(characters())
    def test_zero_class_exactly_on_positive_trivial_weight(self, c):
        """``k_euler(c)`` is ``None`` exactly when the trivial weight has
        positive multiplicity, and raises when it has negative multiplicity."""
        if c.trivial_coefficient() < 0:
            with pytest.raises(TrivialDenominator):
                k_euler(c)
        else:
            assert (k_euler(c) is None) == (c.trivial_coefficient() > 0)

    def test_trivial_denominator_raises(self):
        with pytest.raises(TrivialDenominator):
            k_euler(-Character.one())

    @given(characters(allow_trivial=False), characters(allow_trivial=False))
    def test_multiplicative(self, a, b):
        assert k_euler(a + b) == k_euler(a) * k_euler(b)

    @given(characters(allow_trivial=False))
    def test_inverse_of_negation(self, c):
        assert k_euler(-c) * k_euler(c) == FactoredForm.one()


class TestEvalPoint:
    def test_direct_substitution(self):
        f = FactoredForm([(t1.inverse(), 1)])
        p = PointAssignment({T1: rational(2)})
        assert f.eval_point(p) == rational(1, 2)

    def test_spec_quotient_value(self):
        # (1 - t1 t2)(1 - t2)^-1 at t1=2, t2=3 is (1-6)/(1-3) = 5/2
        f = FactoredForm([(t1 * t2, 1), (t2, -1)])
        p = PointAssignment({T1: rational(2), T2: rational(3)})
        assert f.eval_point(p) == rational(5, 2)

    def test_pole(self):
        f = FactoredForm([(t2, -1)])
        with pytest.raises(PoleAtPoint):
            f.eval_point(PointAssignment({T2: rational(1)}))

    @pytest.mark.parametrize("denominator_first", [False, True])
    def test_vanishing_denominator_gives_zero_d(self, denominator_first):
        """A vanishing denominator factor makes ``d == 0`` whatever vanishes
        before or after it."""
        factors = [(t1, 2), (w11, -1)]
        f = FactoredForm(factors[::-1] if denominator_first else factors)
        assert [m for m, _ in f.factors()][0] == (w11 if denominator_first else t1)
        _, d = f.eval_pair(PointAssignment({T1: rational(1), w_var(1, 1): rational(1)}))
        assert d == 0

    def test_vanishing_numerator_gives_zero_n(self):
        f = FactoredForm([(t1, 2), (w11, -1)])
        n, d = f.eval_pair(PointAssignment({T1: rational(1), w_var(1, 1): rational(3)}))
        assert n == 0 and d != 0

    def test_pair_value(self):
        assert pair_value(6, -4) == rational(-3, 2)
        with pytest.raises(PoleAtPoint):
            pair_value(0, 0)

    def test_trivial_factor_rejected(self):
        with pytest.raises(ValueError):
            FactoredForm([(t1, 1), (Monomial.one(), -1)])

    @given(characters(allow_trivial=False), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_reciprocal_pairs(self, c, seed):
        from quotloc.points import seeded_point

        variables = {v for m, _ in c.items() for v in m.variables()}
        p = seeded_point(variables, seed)
        try:
            forward = k_euler(c).eval_point(p)
            backward = k_euler(-c).eval_point(p)
        except PoleAtPoint:
            return
        if forward and backward:
            assert forward * backward == 1


class TestFormMonomial:
    """A form ``monomial * prod (1 - m)^c``: the monomial takes part in equality,
    products, ``is_one``, the repr and the atoms."""

    def test_equality_and_is_one(self):
        assert FactoredForm(monomial=t2) != FactoredForm.one()
        assert FactoredForm([(t1, 1)], t2) != FactoredForm([(t1, 1)])
        assert not FactoredForm(monomial=t2).is_one
        assert FactoredForm(monomial=Monomial.one()).is_one

    def test_product_multiplies_monomials(self):
        product = FactoredForm([(t1, 1)], t2) * FactoredForm([(t1, -1)], t1 * t2.inverse())
        assert product == FactoredForm(monomial=t1)
        assert (FactoredForm(monomial=t2) * FactoredForm(monomial=t2.inverse())).is_one

    def test_repr(self):
        assert repr(FactoredForm([(t1, 1)], t2**3)) == "t2^3*(1 - t1)"
        assert repr(FactoredForm(monomial=t2**3)) == "t2^3"
        assert repr(FactoredForm([(t1, -2)])) == "(1 - t1)^-2"
        assert repr(FactoredForm.one()) == "1"

    def test_atoms_put_the_monomial_pair_first(self):
        p = PointAssignment({T1: rational(2), T2: rational(3, 5)})
        form = FactoredForm([(t1, 1), (t2, -1)], t2**2)
        assert form.atoms(p) == ((9, -1, 5), (25, 1, 2))
        assert FactoredForm([(t1, 1), (t2, -1)]).atoms(p) == ((-1, 5), (1, 2))
        assert form.eval_point(p) == rational(-9, 10)


forms = st.builds(FactoredForm, characters(allow_trivial=False), monomials(allow_trivial=False))


class TestAdams:
    """The Adams operation ``psi_k`` is an operation on forms: read at a point it
    gives the form's value at the point's ``k``-th powers, and it is a monoid
    action by ring maps."""

    @given(forms, st.integers(1, 4), st.lists(nonzero_rationals(), min_size=len(VARS), max_size=len(VARS)))
    @settings(max_examples=80, deadline=None)
    def test_value_at_a_point_is_the_value_at_its_powers(self, form, k, values):
        p = PointAssignment(zip(VARS, values))
        q = PointAssignment({v: x**k for v, x in zip(VARS, values)})
        try:
            lhs, rhs = form.adams(k).eval_point(p), form.eval_point(q)
        except PoleAtPoint:
            assume(False)
        assert lhs == rhs

    @given(forms, st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=60)
    def test_monoid_action(self, form, k, l):
        assert form.adams(1) == form
        assert form.adams(k).adams(l) == form.adams(k * l)

    @given(forms, forms, st.integers(1, 4))
    @settings(max_examples=60)
    def test_multiplicative(self, f, g, k):
        assert (f * g).adams(k) == f.adams(k) * g.adams(k)


class TestHalfWeights:
    """The twisted point ``t_i = u_i^2`` evaluates ``t`` monomials in the
    ``u`` variables; framing variables keep their values."""

    point = PointAssignment(
        {U1: rational(2), U2: rational(3, 5), w_var(1, 1): rational(7, 4)}
    )

    def test_single_variable(self):
        assert value(twisted_point(self.point), t1) == rational(4)

    def test_mixed(self):
        got = value(twisted_point(self.point), t1 * t2.inverse())
        assert got == rational(4) / rational(9, 25)

    def test_framing_passthrough(self):
        got = value(twisted_point(self.point), t1 * w11)
        assert got == rational(4) * rational(7, 4)

    def test_twist_monomial(self):
        from quotloc.series import half_weight_twist
        from quotloc.vertex import Ranks

        assert half_weight_twist(Ranks(2, 1)) ** 3 == Monomial(
            {u_var(1): -6, u_var(2): -3}
        )

    @given(monomials(), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_ring_map(self, m, seed):
        variables = (U1, U2, w_var(1, 1), w_var(1, 2), w_var(2, 1))
        p = seeded_point(variables, seed)
        expect = (
            p.value(U1) ** (2 * m.exponent(T1))
            * p.value(U2) ** (2 * m.exponent(T2))
            * value(p, m.restrict(lambda v: v[0] == "w"))
        )
        assert value(twisted_point(p), m) == expect


class TestCohEuler:
    """``k_euler`` read at a cohomological point: ``1 - t^-mu`` takes the
    value ``mu . s``."""

    def test_linear_form_of_mixed_weight(self):
        m = Monomial({T1: 2, T2: 1, w_var(1, 1): -1})
        p = PointAssignment(
            {("s", 1): rational(3), ("s", 2): rational(5, 2), ("v", 1, 1): rational(1, 7)}
        )
        got = k_euler(Character.from_monomial(m)).eval_point(p.linearized())
        assert got == 2 * rational(3) + rational(5, 2) - rational(1, 7)

    def test_quotient_of_forms(self):
        p = seeded_point((("s", 1), ("s", 2)), 5)
        got = k_euler(char((t1, 1), (t2, -1))).eval_point(p.linearized())
        assert got == p.value(("s", 1)) / p.value(("s", 2))

    def test_eval(self):
        form = k_euler(char((t1, 1), (t2, -1)))
        p = PointAssignment({("s", 1): rational(2), ("s", 2): rational(5)})
        assert form.eval_point(p.linearized()) == rational(2, 5)

    def test_pole_on_vanishing_form(self):
        form = k_euler(char((t1 * t2, -1)))
        p = PointAssignment({("s", 1): rational(2), ("s", 2): rational(-2)})
        with pytest.raises(PoleAtPoint):
            form.eval_point(p.linearized())


class TestUniformScaling:
    @given(st.integers(0, 2**32), nonzero_rationals())
    @settings(max_examples=30)
    def test_vertex_weight_invariant_under_w_scaling(self, seed, lam):
        """Rank-0 vertex data is degree 0 in the framing variables: scaling
        every w by a common factor leaves the evaluation unchanged."""
        import random

        from quotloc.points import seeded_point
        from quotloc.suites import random_fixed_point
        from quotloc.vertex import contribution

        bn = random_fixed_point(random.Random(seed), max_total=3, max_size=4)
        form = contribution(bn)
        p = seeded_point(bn.ranks.variables(), seed)
        try:
            base = form.eval_point(p)
            scaled = form.eval_point(
                p.with_values({v: p.value(v) * lam for v in bn.ranks.w_vars()})
            )
        except PoleAtPoint:
            return
        assert base == scaled
