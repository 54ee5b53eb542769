"""Character algebra: monomials, the bar involution, the Euler operators
and the evaluation homomorphisms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotloc.chars import (
    Character,
    FactoredForm,
    LinearForm,
    LinearFormProduct,
    Monomial,
    PoleAtPoint,
    T1,
    T2,
    TrivialDenominator,
    TrivialWeight,
    bar,
    coh_euler,
    k_euler,
    substitute_halfweights,
    u_var,
    w_var,
)
from quotloc.points import PointAssignment
from quotloc.rational import rational

from strategies import characters, monomials, nonzero_rationals

t1 = Monomial.var(T1)
t2 = Monomial.var(T2)
w11 = Monomial.var(w_var(1, 1))


def char(*terms):
    return Character(terms)


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

    @given(monomials(), monomials())
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(monomials())
    def test_hash_consistent(self, m):
        assert hash(m) == hash(Monomial(dict(m.exponents())))


class TestBar:
    def test_fixes_trivial(self):
        assert bar(Character.one()) == Character.one()

    def test_inverts_single_variable(self):
        assert bar(char((t1, 1))) == char((t1.inverse(), 1))

    def test_linear_extension(self):
        c = char((t1 * t2, 2), (w11, -1))
        assert bar(c) == char(((t1 * t2).inverse(), 2), (w11.inverse(), -1))

    @given(characters())
    def test_involution(self, c):
        assert bar(bar(c)) == c

    @given(characters(), characters())
    def test_ring_map(self, a, b):
        assert bar(a + b) == bar(a) + bar(b)
        assert bar(a * b) == bar(a) * bar(b)


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
        assert k_euler(Character.one() + char((t1, 1))).is_zero

    def test_trivial_denominator_raises(self):
        with pytest.raises(TrivialDenominator):
            k_euler(-Character.one())

    @given(characters(allow_trivial=False), characters(allow_trivial=False))
    def test_multiplicative(self, a, b):
        assert k_euler(a + b) == k_euler(a) * k_euler(b)

    @given(characters(allow_trivial=False))
    def test_inverse_of_negation(self, c):
        assert k_euler(-c) == k_euler(c).inverse()


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

    def test_zero_flag_evaluates_to_zero(self):
        p = PointAssignment({T1: rational(2)})
        assert FactoredForm.zero().eval_point(p) == 0

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


class TestHalfWeights:
    def test_single_variable(self):
        assert substitute_halfweights(char((t1, 1))) == char((Monomial.var(u_var(1), 2), 1))

    def test_mixed(self):
        got = substitute_halfweights(char((t1 * t2.inverse(), 1)))
        expect = char((Monomial({u_var(1): 2, u_var(2): -2}), 1))
        assert got == expect

    def test_framing_passthrough(self):
        got = substitute_halfweights(char((t1 * w11, 1)))
        assert got == char((Monomial({u_var(1): 2, w_var(1, 1): 1}), 1))

    def test_twist_monomial(self):
        from quotloc.series import half_weight_twist
        from quotloc.vertex import Ranks

        assert half_weight_twist(Ranks(2, 1), 3) == Monomial(
            {u_var(1): -6, u_var(2): -3}
        )

    def test_rejects_u_input(self):
        with pytest.raises(ValueError):
            substitute_halfweights(char((Monomial.var(u_var(1)), 1)))

    @given(characters(), characters())
    def test_ring_map(self, a, b):
        sub = substitute_halfweights
        assert sub(a * b) == sub(a) * sub(b)
        assert sub(a + b) == sub(a) + sub(b)


class TestCohEuler:
    def test_linear_form_of_mixed_weight(self):
        m = Monomial({T1: 2, T2: 1, w_var(1, 1): -1})
        form = coh_euler(Character.from_monomial(m))
        expect = LinearFormProduct(
            [(LinearForm([(("s", 1), 2), (("s", 2), 1), (("v", 1, 1), -1)]), 1)]
        )
        assert form == expect

    def test_quotient_of_forms(self):
        form = coh_euler(char((t1, 1), (t2, -1)))
        s1 = LinearForm([(("s", 1), 1)])
        s2 = LinearForm([(("s", 2), 1)])
        assert form == LinearFormProduct([(s1, 1), (s2, -1)])

    def test_trivial_weight_raises(self):
        with pytest.raises(TrivialWeight):
            coh_euler(Character.one())

    def test_eval(self):
        form = coh_euler(char((t1, 1), (t2, -1)))
        p = PointAssignment({("s", 1): rational(2), ("s", 2): rational(5)})
        assert form.eval_point(p) == rational(2, 5)

    def test_pole_on_vanishing_form(self):
        form = coh_euler(char((t1 * t2, -1)))
        p = PointAssignment({("s", 1): rational(2), ("s", 2): rational(-2)})
        with pytest.raises(PoleAtPoint):
            form.eval_point(p)


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
            scaled = form.eval_point(p.scale_group("w", lam))
        except PoleAtPoint:
            return
        assert base == scaled
