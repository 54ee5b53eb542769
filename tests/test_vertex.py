"""Fixed points and their virtual tangent characters."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotloc.chars import Character, FactoredForm, Monomial, T1, T2, t_var, w_var
from quotloc.limits import limit_table
from quotloc.series import localized_forms
from quotloc.suites import random_fixed_point, ranks_up_to
from quotloc.vertex import (
    FixedPoint,
    Ranks,
    box_char,
    contribution,
    fixed_points,
    framing_char,
    line_states,
    q_char,
    slot_states,
    smooth_tangent,
    vertex_block,
    vertex_blocks_sum,
    vertex_term,
)

t1 = Monomial.var(T1)
t2 = Monomial.var(T2)


def block_keys(max_total=4, max_length=5):
    """Every block ``(a, b, m_a, m_b)`` of every rank pair up to total rank
    ``max_total``, as a line table asks for it: ``a == b`` only with
    ``m_a == m_b``.  Yields the :func:`vertex_block` key
    ``((i, alpha), (j, beta), m_a, m_b)`` of slots ``a`` and ``b``."""
    lengths = range(max_length + 1)
    for ranks in ranks_up_to(max_total):
        slots = ranks.slots()
        for a, b in itertools.product(range(len(slots)), repeat=2):
            for m_a, m_b in itertools.product(lengths, repeat=2):
                if a == b and m_a != m_b:
                    continue
                yield slots[a], slots[b], m_a, m_b


def untelescoped_block(slot_a, slot_b, m_a, m_b):
    """``w(i,a)^-1 w(j,b) ((1 - t_i^-1) Z_jb - (1 - t1^-1)(1 - t2^-1) bar(Z_ia) Z_jb)``
    as character products."""
    (i, alpha), (j, beta) = slot_a, slot_b

    def one_minus_tinv(k):
        return Character.one() - Character.from_monomial(Monomial.var(t_var(k), -1))

    z_ia = box_char(m_a, i)
    z_jb = box_char(m_b, j)
    inner = one_minus_tinv(i) * z_jb - one_minus_tinv(1) * one_minus_tinv(2) * z_ia.bar() * z_jb
    return inner * (Monomial.var(w_var(i, alpha), -1) * Monomial.var(w_var(j, beta)))


class TestRanks:
    def test_validation(self):
        with pytest.raises(ValueError):
            Ranks(0, 0)
        with pytest.raises(ValueError):
            Ranks(-1, 2)

    def test_slots_order(self):
        assert Ranks(2, 1).slots() == ((1, 1), (1, 2), (2, 1))

    def test_variables(self):
        assert Ranks(1, 1).variables() == (T1, T2, w_var(1, 1), w_var(2, 1))


class TestFixedPoints:
    def test_rank_one_one_length_two(self):
        pts = fixed_points(Ranks(1, 1), 2)
        assert [p.lengths for p in pts] == [(2, 0), (1, 1), (0, 2)]

    def test_single_slot(self):
        assert len(fixed_points(Ranks(0, 1), 5)) == 1

    def test_count_by_enumeration(self):
        # brute-force oracle: count lattice tuples directly
        def brute(n, k):
            if k == 0:
                return 1 if n == 0 else 0
            return sum(brute(n - first, k - 1) for first in range(n + 1))

        for r1, r2 in ((2, 1), (2, 2), (3, 1)):
            for n in range(6):
                pts = fixed_points(Ranks(r1, r2), n)
                assert len(pts) == brute(n, r1 + r2)
                assert len(pts) == math.comb(n + r1 + r2 - 1, r1 + r2 - 1)
                assert len(set(p.lengths for p in pts)) == len(pts)

    def test_slot_accessor(self):
        bn = FixedPoint(Ranks(2, 1), (5, 7, 9))
        assert bn.length(1, 1) == 5 and bn.length(1, 2) == 7 and bn.length(2, 1) == 9
        assert bn.size == 21


class TestBoxChar:
    def test_empty(self):
        assert box_char(0, 1).is_zero

    def test_opposite_axis_convention(self):
        assert box_char(2, 1) == Character([(Monomial.one(), 1), (t2, 1)])
        assert box_char(3, 2) == Character(
            [(Monomial.one(), 1), (t1, 1), (t1**2, 1)]
        )

    @given(st.integers(0, 12), st.sampled_from((1, 2)))
    def test_rank(self, m, i):
        assert box_char(m, i).rank() == m


class TestQChar:
    def test_single_box(self):
        bn = FixedPoint(Ranks(1, 1), (1, 0))
        assert q_char(bn) == Character.from_monomial(Monomial.var(w_var(1, 1)))

    def test_assembled(self):
        bn = FixedPoint(Ranks(1, 1), (2, 1))
        w11, w21 = Monomial.var(w_var(1, 1)), Monomial.var(w_var(2, 1))
        expect = Character([(w11, 1), (w11 * t2, 1), (w21, 1)])
        assert q_char(bn) == expect

    def test_empty(self):
        assert q_char(FixedPoint(Ranks(1, 1), (0, 0))).is_zero

    @given(st.integers(0, 2**32))
    def test_rank_is_size(self, seed):
        bn = random_fixed_point(random.Random(seed))
        assert q_char(bn).rank() == bn.size


class TestVertexTerm:
    def test_rank_one_single_box(self):
        bn = FixedPoint(Ranks(1, 0), (1,))
        assert vertex_term(bn) == Character(
            [(t2.inverse(), 1), ((t1 * t2).inverse(), -1)]
        )

    def test_swapped_ranks(self):
        bn = FixedPoint(Ranks(0, 1), (1,))
        assert vertex_term(bn) == Character(
            [(t1.inverse(), 1), ((t1 * t2).inverse(), -1)]
        )

    def test_empty_point(self):
        assert vertex_term(FixedPoint(Ranks(2, 2), (0, 0, 0, 0))).is_zero

    def test_structure_over_small_ranks(self):
        """Rank zero, block reconstruction and movability for every fixed
        point with total rank <= 4 and size <= 6."""
        from quotloc.suites import ranks_up_to

        for ranks in ranks_up_to(4):
            for n in range(7):
                for bn in fixed_points(ranks, n):
                    term = vertex_term(bn)
                    assert term.rank() == 0
                    assert not term.trivial_coefficient()
                    assert vertex_blocks_sum(bn) == term


class TestVertexBlocks:
    def test_diagonal_example(self):
        got = vertex_block((1, 1), (1, 1), 2, 2)
        one_minus = Character.one() - Character.from_monomial(t1.inverse())
        tail = Character([(t2.inverse(), 1), (t2**-2, 1)])
        assert got == one_minus * tail

    def test_diagonal_empty(self):
        assert vertex_block((1, 1), (1, 1), 0, 0).is_zero

    def test_cross_block_hand_expansion(self):
        got = vertex_block((1, 1), (2, 1), 1, 1)
        w = Monomial.var(w_var(1, 1), -1) * Monomial.var(w_var(2, 1))
        expect = Character([(w * t2.inverse(), 1), (w * (t1 * t2).inverse(), -1)])
        assert got == expect

    @given(st.integers(1, 8), st.sampled_from((1, 2)))
    def test_diagonal_closed_form(self, m, i):
        one_minus = Character.one() - Character.from_monomial(
            Monomial.var(("t", i), -1)
        )
        tail = Character((Monomial.var(("t", 3 - i), -a), 1) for a in range(1, m + 1))
        assert vertex_block((i, 1), (i, 1), m, m) == one_minus * tail

    def test_telescoped_equals_untelescoped(self):
        count = 0
        for key in block_keys():
            assert vertex_block(*key) == untelescoped_block(*key), key
            count += 1
        assert count == 3480

    def test_determinant(self):
        """``det`` of block ``((i, alpha), (j, beta), m_a, m_b)`` is ``t_i^m_b``;
        over a fixed point these multiply to no-twist's ``t1^(n r1) t2^(n r2)``."""
        for key in block_keys():
            (i, _), _, _, m_b = key
            assert vertex_block(*key).det() == Monomial.var(t_var(i), m_b), key

    def test_build_multiplies_no_characters(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("block built by a character product")

        monkeypatch.setattr(Character, "__mul__", refuse)
        monkeypatch.setattr(Character, "__rmul__", refuse)
        table = localized_forms(Ranks(2, 2), 6)
        table.fold(lambda w: w, lambda acc, w: acc, None)
        # every key (a, b, m_a, m_b) with m_a + m_b <= 6, a == b only with m_a == m_b
        assert len(table.weights) == 4 * 3 * math.comb(8, 2) + 4 * 7

    def test_tables_build_no_fixed_point(self, monkeypatch):
        """A line block is keyed by its slots and lengths alone: building every
        block of a localized table and of a limit table makes no ``FixedPoint``."""

        def refuse(self):
            raise AssertionError("a FixedPoint was built for a block")

        monkeypatch.setattr(FixedPoint, "__post_init__", refuse)
        for table in (localized_forms(Ranks(2, 2), 4), limit_table(Ranks(2, 2), 4)):
            folded = table.fold(lambda w: w, lambda acc, w: acc, None)
            assert len(folded) == math.comb(4 + 4, 4)
            assert len(table.weights) == 4 * 3 * math.comb(6, 2) + 4 * 5


class TestDetChar:
    @given(st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_twist_monomial(self, seed):
        bn = random_fixed_point(random.Random(seed), max_total=4, max_size=5)
        n, r = bn.size, bn.ranks
        expect = Monomial({T1: n * r.r1, T2: n * r.r2})
        assert vertex_term(bn).det() == expect


class TestSmoothTangent:
    def test_single_point(self):
        bn = FixedPoint(Ranks(0, 1), (1,))
        assert smooth_tangent(bn) == Character.from_monomial(t1.inverse())

    def test_identity_with_vertex_term(self):
        t2_inv = Character.from_monomial(t2.inverse())
        for r in (1, 2, 3):
            for n in range(6):
                for bn in fixed_points(Ranks(0, r), n):
                    tangent = smooth_tangent(bn)
                    assert vertex_term(bn) == tangent - t2_inv * tangent

    def test_requires_first_rank_zero(self):
        with pytest.raises(ValueError):
            smooth_tangent(FixedPoint(Ranks(1, 0), (1,)))

    def test_empty(self):
        assert smooth_tangent(FixedPoint(Ranks(0, 2), (0, 0))).is_zero


class TestContribution:
    def test_rank_one(self):
        bn = FixedPoint(Ranks(1, 0), (1,))
        assert contribution(bn) == FactoredForm([(t1 * t2, 1), (t2, -1)])

    def test_swapped(self):
        bn = FixedPoint(Ranks(0, 1), (1,))
        assert contribution(bn) == FactoredForm([(t1 * t2, 1), (t1, -1)])

    def test_empty_is_one(self):
        assert contribution(FixedPoint(Ranks(1, 1), (0, 0))).is_one

    def test_never_zero_flag(self):
        """By movability a fixed point's weight is never the zero class ``None``."""
        rng = random.Random(7)
        for _ in range(50):
            bn = random_fixed_point(rng)
            form = contribution(bn)
            assert isinstance(form, FactoredForm)


class TestFramingChar:
    def test_values(self):
        assert framing_char(Ranks(2, 1), 1) == Character(
            [(Monomial.var(w_var(1, 1)), 1), (Monomial.var(w_var(1, 2)), 1)]
        )
        assert framing_char(Ranks(2, 0), 2).is_zero


def test_compositions_order_and_count():
    cs = list(slot_states(2, 3, line_states))
    assert cs == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(slot_states(0, 0, line_states)) == [()]
    assert list(slot_states(0, 2, line_states)) == []
