"""The framing-limit calculus and the factorization it mechanizes."""

import itertools

import pytest

from quotloc.chars import FactoredForm, Monomial, T1, T2, k_euler, w_var
from quotloc.limits import (
    DECAYING,
    GROWING,
    NEUTRAL,
    DivergentLimit,
    classify,
    crossing_shift_monomial,
    factored_shift_monomial,
    framing_limit,
    limit_table,
    slot_shifts,
)
from quotloc.points import draw_point, rational_stream, seeded_point
from quotloc.rational import rational
from quotloc.series import eval_forms, localized_forms, z_closed
from quotloc.suites import ranks_up_to
from quotloc.vertex import Ranks, fixed_points, vertex_block


RANKS22 = Ranks(2, 2)


class TestClassify:
    def test_later_slot_outruns_earlier_on_every_slot_pair(self):
        """On all four slots of (2,2), ``w_k^5 w_l^-1`` with ``k < l`` decays
        whatever ``t`` monomial it carries, and its inverse grows."""
        slots = RANKS22.slots()
        for k, l in itertools.combinations(range(len(slots)), 2):
            for t_part in (Monomial.one(), Monomial({T1: 3, T2: -2})):
                m = Monomial({w_var(*slots[k]): 5, w_var(*slots[l]): -1}) * t_part
                assert classify(m, RANKS22) == DECAYING, (slots[k], slots[l])
                assert classify(m.inverse(), RANKS22) == GROWING, (slots[k], slots[l])

    def test_fastest_variable_decides(self):
        m = Monomial({w_var(1, 1): 2, w_var(2, 2): -3})
        assert classify(m, RANKS22) == DECAYING
        assert classify(m.inverse(), RANKS22) == GROWING

    def test_cross_group_dominance(self):
        m = Monomial({w_var(1, 1): -1, w_var(2, 1): 1, T1: 1})
        assert classify(m, RANKS22) == GROWING
        assert classify(m.inverse(), RANKS22) == DECAYING

    def test_pure_t_is_neutral(self):
        assert classify(Monomial({T1: 1, T2: -3}), RANKS22) == NEUTRAL
        assert classify(Monomial.one(), RANKS22) == NEUTRAL

    def test_within_group_later_slot_dominates(self):
        # the first limit identity forces the speeds to increase along the
        # slot order, so w11 * w12^-1 decays
        m = Monomial({w_var(1, 1): 1, w_var(1, 2): -1})
        assert classify(m, RANKS22) == DECAYING
        assert classify(m.inverse(), RANKS22) == GROWING


class TestFramingLimit:
    def test_decaying_factors_drop(self):
        m = Monomial({w_var(1, 1): 1, w_var(2, 1): -1, T1: 2})
        assert framing_limit(FactoredForm([(m, 5)]), RANKS22).is_one

    def test_neutral_factors_kept(self):
        m = Monomial({T1: 1, T2: 1})
        form = FactoredForm([(m, -1)])
        lim = framing_limit(form, RANKS22)
        assert lim == form

    def test_unbalanced_growing_diverges(self):
        growing = Monomial({w_var(1, 1): -1, w_var(2, 1): 1})
        with pytest.raises(DivergentLimit):
            framing_limit(FactoredForm([(growing, 1)]), RANKS22)

    def test_balanced_growing_pair(self):
        up = Monomial({w_var(1, 1): -1, w_var(2, 1): 1, T2: 1})
        down = Monomial({w_var(1, 1): -1, w_var(2, 1): 1})
        form = FactoredForm([(up, 1), (down, -1)])
        assert framing_limit(form, RANKS22) == FactoredForm(monomial=Monomial.var(T2))

    def test_odd_growing_multiplicity_raises(self):
        single = Monomial({w_var(1, 1): -1, w_var(2, 1): 1, T2: 1})
        double = Monomial({w_var(1, 1): -2, w_var(2, 1): 2})
        # both grow; multiplicities 2 - 1 = 1 (odd) and the w parts cancel
        form = FactoredForm([(single, 2), (double, -1)])
        with pytest.raises(ValueError, match="odd growing multiplicity 1"):
            framing_limit(form, RANKS22)

    def test_cross_blocks_have_rank_zero_and_one_framing_part(self):
        """The premise of the ``framing_limit`` proof that no line block limit has
        an odd growing multiplicity: every cross block of total rank <= 4 and
        lengths <= 6 is ``w(i,a)^-1 w(j,b)`` times a pure-``t`` character of rank 0,
        and every diagonal block is pure ``t``."""
        slot_pairs = {pair for ranks in ranks_up_to(4) for pair in itertools.product(ranks.slots(), repeat=2)}
        for (i, a), (j, b) in slot_pairs:
            framing = Monomial.var(w_var(i, a), -1) * Monomial.var(w_var(j, b))
            for m_a, m_b in itertools.product(range(7), repeat=2):
                block = vertex_block((i, a), (j, b), m_a, m_b)
                parts = {m.restrict(lambda v: v[0] == "w") for m in block.monomials()}
                assert parts <= {framing}, ((i, a), (j, b), m_a, m_b)
                assert framing.is_one or block.rank() == 0, ((i, a), (j, b), m_a, m_b)


class TestBlockLimits:
    """The two symbolic limit identities for every ordered slot pair."""

    @pytest.mark.parametrize("sizes", [(0, 0), (1, 2), (3, 1), (5, 5)])
    def test_all_pairs(self, sizes):
        ranks = Ranks(2, 2)
        slots, table = ranks.slots(), limit_table(ranks, sum(sizes))
        n_low, n_high = sizes
        for lo, hi in itertools.combinations(range(4), 2):
            j = slots[hi][0]
            assert table.weight(lo, hi, n_low, n_high).is_one
            assert table.weight(hi, lo, n_high, n_low) == FactoredForm(
                monomial=Monomial.var(("t", j), n_low)
            )

    def test_diagonal_block_limit_keeps_factors(self):
        lim = limit_table(Ranks(1, 1), 2).weight(0, 0, 2, 2)
        assert lim.monomial.is_one
        assert lim == k_euler(-vertex_block((1, 1), (1, 1), 2, 2))


class TestShiftBookkeeping:
    def test_slot_shift_is_the_product_over_later_slots(self):
        """Slot ``k``'s q-shift is ``t_j`` multiplied over the slots ``(j, b)``
        after ``k``, for every rank pair of total rank <= 4."""
        for ranks in ranks_up_to(4):
            slots, shifts = ranks.slots(), slot_shifts(ranks)
            assert len(shifts) == len(slots)
            for k, shift in enumerate(shifts):
                later = [0, 0]
                for j, _b in slots[k + 1 :]:
                    later[j - 1] += 1
                assert shift == Monomial({T1: later[0], T2: later[1]}), (ranks, slots[k])

    def test_rearrangement_identity(self):
        for r1 in range(0, 4):
            for r2 in range(0, 4 - r1):
                if r1 + r2 == 0:
                    continue
                ranks = Ranks(r1, r2)
                shifts = slot_shifts(ranks)
                for n in range(6):
                    for bn in fixed_points(ranks, n):
                        assert crossing_shift_monomial(bn) == factored_shift_monomial(bn, shifts)


class TestZViaLimits:
    def test_rank_one_trivially_equals_localized(self):
        ranks = Ranks(1, 0)
        t_point = seeded_point((T1, T2), 5)
        full = seeded_point(ranks.variables(), 6).with_values(dict(t_point.items()))
        limits = eval_forms(limit_table(ranks, 4), t_point)
        assert limits == eval_forms(localized_forms(ranks, 4), full)

    def test_hand_value_for_rank11(self):
        # degree-1 limit weights: t2 * (1-t1t2)/(1-t2) and (1-t1t2)/(1-t1),
        # totalling 25/2 at t1=2, t2=3
        from quotloc.points import PointAssignment

        point = PointAssignment({T1: rational(2), T2: rational(3)})
        z = eval_forms(limit_table(Ranks(1, 1), 1), point)
        assert z.coefficient(1) == rational(3) * rational(5, 2) + rational(5)
        assert z.coefficient(1) == rational(25, 2)

    @pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1), (2, 2)])
    def test_equals_closed_form(self, r1, r2):
        ranks = Ranks(r1, r2)
        table = limit_table(ranks, 4)
        stream = rational_stream(11)
        for _ in range(3):
            point = draw_point((T1, T2), stream)
            assert eval_forms(table, point) == z_closed(ranks, point, 4)

    def test_limit_table_weights_are_pure_t(self):
        table = limit_table(Ranks(2, 1), 3)
        for a, b in itertools.product(range(3), repeat=2):
            for m_a, m_b in itertools.product(range(4), repeat=2):
                if m_a + m_b > 3 or (a == b and m_a != m_b):
                    continue
                lim = table.weight(a, b, m_a, m_b)
                assert all(v[0] == "t" for v in lim.monomial.variables())
                assert all(
                    v[0] == "t" for m, _ in lim.factors() for v in m.variables()
                )
